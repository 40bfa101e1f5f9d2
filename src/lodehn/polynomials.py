"""Exact univariate polynomial and Laurent polynomial arithmetic over Q.

``Poly`` stores Fraction coefficients in ascending degree order and is
the only rational polynomial arithmetic (Q[t]/(m) has its own integer
kernel in ``quotient``); ``LaurentPoly`` is an offset over it,
t^offset times a Poly with a nonzero constant term.  The
real-root machinery (Sturm chains, isolation, refinement) is exact:
every interval endpoint is a rational that is not a root of the query
polynomial, so counts are unconditional.

The root layer runs on integers from the Sturm chain to the last
bisection step.  Every sign it needs comes from one integer evaluator,
``_sign_int``: a polynomial is scaled once by a positive rational to
coprime integer coefficients, which keeps every sign, and at x = a/b
with b > 0 the sign of p(x) is that of the integer b^d p(a/b), computed
by homogeneous Horner.  The Sturm chain is the negated primitive
pseudo-remainder sequence, each member sign-corrected to a positive
integer multiple of the chain over Q, so every count is the same.
Bisection holds an interval as two integer numerators over one
denominator and divides out their common factor after each step.
``isolate_real_roots`` builds its chain once and counts every
sub-interval with it.  ``refine_isolating_interval`` needs no chain:
its interval holds exactly one root of a square-free polynomial, a root
of odd (indeed first) multiplicity, so the polynomial has opposite signs
at the two endpoints, and of the two halves at a non-root midpoint
exactly the one whose endpoint signs differ holds the root.  That is the
half a Sturm count picks, so the intervals are the ones per-step Sturm
counting gives.  Fractions are built only for the arguments and the
results.

``poly_gcd`` runs on integers too: the primitive pseudo-remainder
sequence of integer multiples of its inputs, through ``_pseudo_divmod``,
the pseudo-division that the Sturm chain and the reduction and pivot
tests in ``quotient`` share.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Poly:
    """Dense polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of degree k; trailing zeros are
    trimmed, so the zero polynomial has an empty tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly([other]).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly([-_frac(other)]))

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly([other]) - self

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return Poly([c * q for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + k] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = Poly([1]), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs) if k > 0])

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading
        return self if lead == 1 else Poly([c / lead for c in self.coeffs])

    def divmod(self, divisor: "Poly") -> Tuple["Poly", "Poly"]:
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading
        quo = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quo[i - dd] = q
            for k in range(dd + 1):
                rem[i - dd + k] -= q * divisor.coeffs[k]
        return Poly(quo), Poly(rem)

    def __floordiv__(self, divisor: "Poly") -> "Poly":
        return self.divmod(divisor)[0]

    def __mod__(self, divisor: "Poly") -> "Poly":
        return self.divmod(divisor)[1]

    def inflate(self, k: int) -> "Poly":
        """Substitute t -> t^k, e.g. p(t) -> p(t^2) for k = 2."""
        if k < 1:
            raise ValueError("inflation factor must be >= 1")
        if self.is_zero or k == 1:
            return self
        out = [Fraction(0)] * (k * self.degree + 1)
        for i, c in enumerate(self.coeffs):
            out[k * i] = c
        return Poly(out)

    def primitive(self) -> "Poly":
        """Integer-coefficient associate with coprime coefficients and
        positive leading coefficient (see :func:`primitive_ints`)."""
        return Poly(primitive_ints(self))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def _pseudo_divmod(
    a: Sequence[int], b: Sequence[int]
) -> Tuple[int, List[int], List[int]]:
    """(f, q, r) with f a = q b + r and deg r < deg b, for integer
    polynomials (constant term first) with deg a >= deg b and b nonzero.
    f is lc(b)^(deg a - deg b + 1), which makes q integral, so the
    dividend is scaled once and every step of the long division divides
    exactly."""
    db = len(b) - 1
    lead = b[-1]
    steps = len(a) - db
    f = lead**steps
    r = [f * x for x in a]
    q = [0] * steps
    for i in range(steps - 1, -1, -1):
        c = r[i + db]
        if c:
            c //= lead
            q[i] = c
            r[i:i + db] = [x - c * y for x, y in zip(r[i:i + db], b)]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return f, q, r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, by the primitive pseudo-remainder sequence: both inputs
    are scaled to integer polynomials and every pseudo-remainder is
    divided by its content, so the whole sequence runs on integers and
    only the final monic division builds Fractions."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    return Poly(_int_gcd(_int_multiple(a), _int_multiple(b))).monic()


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """An integer multiple of the gcd of two nonzero integer polynomials
    (constant term first), by the primitive pseudo-remainder sequence:
    every pseudo-remainder is divided by its content, so the sequence
    stays on integers.  A single entry means the two are coprime."""
    r0, r1 = a, b
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    while r1:
        _, _, r2 = _pseudo_divmod(r0, r1)
        if r2:
            content = gcd(*r2)
            r2 = [c // content for c in r2]
        r0, r1 = r1, r2
    return list(r0)


def squarefree_decomposition(a: Poly) -> List[Tuple[Poly, int]]:
    """Yun's algorithm: pairwise-coprime monic square-free factors with
    multiplicities whose product (with multiplicity) rebuilds the input
    up to its leading unit."""
    if a.is_zero:
        raise ValueError("square-free decomposition of the zero polynomial")
    a = a.monic()
    if a.degree == 0:
        return []
    d = a.derivative()
    g = poly_gcd(a, d)
    out: List[Tuple[Poly, int]] = []
    b = a // g
    c = d // g
    z = c - b.derivative()
    i = 1
    while b.degree > 0:
        fi = poly_gcd(b, z) if not z.is_zero else b.monic()
        if fi.degree > 0:
            out.append((fi, i))
        b = b // fi
        c = z // fi
        z = c - b.derivative()
        i += 1
    return out


def squarefree_part(a: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of ``a``."""
    if a.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    a = a.monic()
    if a.degree == 0:
        return a
    return a // poly_gcd(a, a.derivative())


class RootAtEndpoint(ValueError):
    """A Sturm query endpoint is itself a root; nudge and retry."""

    def __init__(self, endpoint: Fraction):
        super().__init__(f"interval endpoint {endpoint} is a root")
        self.endpoint = endpoint


def _int_multiple(p: Poly) -> List[int]:
    """Coprime integer coefficients of a positive rational multiple of
    the nonzero ``p``, so every value keeps its sign (unlike
    :meth:`Poly.primitive`, which makes the leading coefficient
    positive)."""
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = gcd(*ints)
    return [n // g for n in ints]


def primitive_ints(p: Poly) -> List[int]:
    """The coefficients of :meth:`Poly.primitive` as ints: those of
    :func:`_int_multiple`, negated when the leading one is negative."""
    if p.is_zero:
        raise ValueError("zero polynomial has no primitive part")
    ints = _int_multiple(p)
    return ints if ints[-1] > 0 else [-c for c in ints]


def _sign_int(coeffs: Sequence[int], a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0, where ``coeffs`` are the integer
    coefficients (ascending, degree d) of a positive multiple of p: the
    sign of b^d * p(a/b), by homogeneous Horner over ints."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * power
        power *= b
    return (acc > 0) - (acc < 0)


def _variations(signs: Iterable[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _int_sturm_chain(p: Poly) -> List[List[int]]:
    """The Sturm chain of ``p`` (degree >= 1), each member a positive
    integer multiple of the Sturm member over Q, which keeps every sign
    and so every count.

    It is the negated primitive pseudo-remainder sequence of
    ``_int_multiple(p)`` and its content-free derivative.  With
    f prev = q cur + r, the remainder r is f times a positive multiple of
    prev mod cur, so -r / content(r) is a positive multiple of the next
    member when f > 0 and r / content(r) when f < 0.  The last member is
    gcd(p, p') up to a constant factor.
    """
    top = _int_multiple(p)
    slope = [k * c for k, c in enumerate(top) if k]
    content = gcd(*slope)
    chain = [top, [c // content for c in slope]]
    while len(chain[-1]) > 1:
        f, _, r = _pseudo_divmod(chain[-2], chain[-1])
        if not r:
            break
        content = gcd(*r) if f < 0 else -gcd(*r)
        chain.append([c // content for c in r])
    return chain


Endpoint = Optional[Fraction]  # None encodes the infinite endpoint


def _chain_variations(
    chain: Sequence[Sequence[int]], x: Endpoint, at_plus_infinity: bool = False
) -> int:
    """Sign variations of an integer Sturm chain at x; ``None`` is +oo
    when ``at_plus_infinity`` is set and -oo otherwise."""
    if x is not None:
        return _int_variations(chain, x.numerator, x.denominator)
    # A member of degree d = len(q) - 1 has the sign of its leading
    # coefficient at +oo, and that sign times (-1)^d at -oo.
    return _variations(
        (q[-1] > 0) - (q[-1] < 0) if at_plus_infinity or len(q) % 2
        else (q[-1] < 0) - (q[-1] > 0)
        for q in chain
    )


def _int_variations(chain: Sequence[Sequence[int]], a: int, b: int) -> int:
    """Sign variations of an integer Sturm chain at a/b, b > 0."""
    return _variations(_sign_int(q, a, b) for q in chain)


def sturm_count(p: Poly, interval: Tuple[Endpoint, Endpoint]) -> int:
    """Exact number of distinct real roots in the open interval.

    The count is of distinct roots also for non-square-free input.  The
    chain of p and p' ends at g = gcd(p, p'), which divides every member
    and is nonzero wherever p is, so at each endpoint the chain has the
    sign variations of its quotients by g.  Those form a Sturm sequence
    of the square-free part p / g: consecutive quotients share no root,
    and (p / g)(p' / g) = (p^2)' / (2 g^2) changes sign from - to + at
    each root of p.  An endpoint that is itself a root raises
    :class:`RootAtEndpoint` so the caller can nudge it.
    """
    if p.is_zero:
        raise ValueError("root counting on the zero polynomial")
    if p.degree == 0:
        return 0
    lo, hi = interval
    lo = None if lo is None else _frac(lo)
    hi = None if hi is None else _frac(hi)
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    chain = _int_sturm_chain(p)
    for endpoint in (lo, hi):
        if endpoint is not None and not _sign_int(
            chain[0], endpoint.numerator, endpoint.denominator
        ):
            raise RootAtEndpoint(endpoint)
    return (_chain_variations(chain, lo)
            - _chain_variations(chain, hi, at_plus_infinity=True))


def root_bound(p: Poly) -> Fraction:
    """A rational B with every real root strictly inside (-B, B)."""
    if p.is_zero:
        raise ValueError("root bound of the zero polynomial")
    lead = abs(p.leading)
    return 1 + max((abs(c) / lead for c in p.coeffs[:-1]), default=Fraction(0))


def _interior_non_root(
    coeffs: Sequence[int], a: int, b: int, den: int
) -> Tuple[int, int, int, int, int]:
    """An interior point of (a/den, b/den), den > 0, that is not a root
    of the polynomial whose positive multiple has integer coefficients
    ``coeffs``, with the polynomial's (nonzero) sign there.

    The point is the midpoint, nudged by ``mid += step; step /= 2`` from
    ``step`` a quarter of the width while it is a root.  All three
    points are held as numerators over one denominator ``e``, a multiple
    of ``den`` that doubles whenever the next step would not be an
    integer, and come back as ``(a, mid, b, e, sign)``; no Fraction is
    built."""
    a, b, e = 4 * a, 4 * b, 4 * den
    mid, step = (a + b) // 2, (b - a) // 4
    while True:
        sign = _sign_int(coeffs, mid, e)
        if sign:
            return a, mid, b, e, sign
        mid += step
        if step & 1:
            a, b, mid, step, e = 2 * a, 2 * b, 2 * mid, 2 * step, 2 * e
        step //= 2
        if not a < mid < b:
            raise AssertionError("failed to dodge a root inside the interval")


def _lowest(a: int, b: int, den: int) -> Tuple[int, int, int]:
    """The interval (a/den, b/den) with the common factor of its
    numerators and denominator divided out."""
    g = gcd(a, b, den)
    return a // g, b // g, den // g


def isolate_real_roots(p: Poly) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational open intervals, one distinct real root each.

    Requires square-free input; endpoints are never roots.  Intervals
    come back sorted left to right.  The bisection runs on integer
    numerators over a common denominator per interval, and each
    endpoint's sign variations are computed once.
    """
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    chain = _int_sturm_chain(p)
    # The chain's last member is gcd(p, p') up to a constant factor.
    if len(chain[-1]) > 1:
        raise ValueError("input must be square-free")

    bound = root_bound(p)
    n, den = bound.numerator, bound.denominator
    var_lo, var_hi = _int_variations(chain, -n, den), _int_variations(chain, n, den)
    total = var_lo - var_hi
    found: List[Tuple[int, int, int]] = []
    stack = [(-n, n, den, var_lo, var_hi)]
    while stack:
        a, b, den, var_lo, var_hi = stack.pop()
        count = var_lo - var_hi
        if count == 0:
            continue
        if count == 1:
            found.append((a, b, den))
            continue
        a, mid, b, e, _ = _interior_non_root(chain[0], a, b, den)
        var_mid = _int_variations(chain, mid, e)
        stack.append((*_lowest(mid, b, e), var_mid, var_hi))
        stack.append((*_lowest(a, mid, e), var_lo, var_mid))
    out = sorted([(Fraction(a, d), Fraction(b, d)) for a, b, d in found])
    if len(out) != total:
        raise AssertionError("isolation lost a root")
    return out


def refine_isolating_interval(
    p: Poly, lo: Fraction, hi: Fraction, max_width: Fraction
) -> Tuple[Fraction, Fraction]:
    """Shrink an isolating interval below ``max_width`` by bisection.

    ``p`` must be square-free and the interval must contain exactly one
    root of ``p``.  That root is then simple, so ``p`` has opposite
    signs at the two endpoints, and each step keeps the half whose
    endpoint signs differ; no Sturm chain is needed.  Raises
    ``ValueError`` when ``max_width`` is not positive, or when the
    endpoints do not bracket a sign change (no root, two roots, or an
    endpoint that is a root).  The returned endpoints are again
    non-roots.  The steps run on integer numerators over one common
    denominator; Fractions are built only for the arguments and the
    result.
    """
    lo, hi = _frac(lo), _frac(hi)
    max_width = _frac(max_width)
    if max_width <= 0:
        raise ValueError(f"max_width must be positive, got {max_width}")
    coeffs = _int_multiple(p)
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    sign_lo = _sign_int(coeffs, a, den)
    if sign_lo * _sign_int(coeffs, b, den) >= 0:
        raise ValueError(f"p does not change sign across ({lo}, {hi})")
    width_num, width_den = max_width.numerator, max_width.denominator
    while (b - a) * width_den > width_num * den:
        a, mid, b, e, sign_mid = _interior_non_root(coeffs, a, b, den)
        if sign_mid != sign_lo:
            a, b, den = _lowest(a, mid, e)
        else:
            a, b, den = _lowest(mid, b, e)
    return Fraction(a, den), Fraction(b, den)


class LaurentPoly:
    """Laurent polynomial t^offset * poly, where ``poly`` is a
    :class:`Poly` with a nonzero constant term (zero is offset 0 and the
    zero Poly).  Every operation aligns offsets and defers to Poly."""

    __slots__ = ("offset", "poly")

    def __init__(
        self, offset: int = 0, coeffs: Union[Poly, Iterable[Scalar]] = ()
    ):
        poly = coeffs if isinstance(coeffs, Poly) else Poly(coeffs)
        low = next((i for i, c in enumerate(poly.coeffs) if c), 0)
        if low:
            poly = Poly(poly.coeffs[low:])
        self.offset = offset + low if poly else 0
        self.poly = poly

    @classmethod
    def from_terms(cls, terms: Dict[int, Scalar]) -> "LaurentPoly":
        if not terms:
            return cls()
        low = min(terms)
        return cls(low, [terms.get(e, 0) for e in range(low, max(terms) + 1)])

    @classmethod
    def monomial(cls, exponent: int, coefficient: Scalar = 1) -> "LaurentPoly":
        return cls(exponent, (coefficient,))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    @property
    def valuation(self) -> int:
        if self.is_zero:
            raise ValueError("zero Laurent polynomial has no valuation")
        return self.offset

    @property
    def degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero Laurent polynomial has no degree")
        return self.offset + self.poly.degree

    def terms(self) -> Dict[int, Fraction]:
        return {self.offset + i: c for i, c in enumerate(self.poly.coeffs) if c}

    def _raised(self, low: int) -> Poly:
        """``poly`` times t^(offset - low), for low <= offset."""
        k = self.offset - low
        return Poly((0,) * k + self.poly.coeffs) if k else self.poly

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.offset == other.offset and self.poly == other.poly
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.is_zero
            return self.offset == 0 and self.poly == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.offset, self.poly))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.offset, -self.poly)

    def __add__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(0, (other,))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        low = min(self.offset, other.offset)
        return LaurentPoly(low, self._raised(low) + other._raised(low))

    __radd__ = __add__

    def __sub__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if not isinstance(other, (int, Fraction, LaurentPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Union["LaurentPoly", Scalar]) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly(self.offset, self.poly * other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(self.offset + other.offset, self.poly * other.poly)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k (any integer k)."""
        return LaurentPoly(self.offset + k, self.poly)

    def reciprocal(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        if self.is_zero:
            return self
        return LaurentPoly(-self.degree, reversed(self.poly.coeffs))

    def to_poly(self) -> Poly:
        if self.offset < 0:
            raise ValueError("negative exponents; shift before converting")
        return self._raised(0)

    def __call__(self, x: Scalar) -> Fraction:
        x = _frac(x)
        if self.offset < 0 and x == 0:
            raise ZeroDivisionError("evaluating a Laurent polynomial at 0")
        return self.poly(x) * x**self.offset

    def __repr__(self) -> str:
        return f"LaurentPoly.from_terms({{{', '.join(f'{e}: {c}' for e, c in sorted(self.terms().items()))}}})"
