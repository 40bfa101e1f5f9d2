"""Exact univariate polynomial and Laurent polynomial arithmetic over Q.

``Poly`` stores Fraction coefficients in ascending degree order and is
the only rational polynomial arithmetic (Q[t]/(m) has its own integer
kernel in ``quotient``); ``LaurentPoly`` is an offset over it,
t^offset times a Poly with a nonzero constant term.  The
real-root machinery (Sturm chains, isolation, refinement) is exact:
every interval endpoint is a rational that is not a root of the query
polynomial, so counts are unconditional.

The root layer runs on integers from the Sturm chain to the last
refinement step.  Every value it needs comes from one integer
evaluator, ``_eval_int``: a polynomial is scaled once by a positive
rational to coprime integer coefficients, which keeps every sign, and
at x = a/b with b > 0 the integer b^d p(a/b), computed by homogeneous
Horner, has the sign of p(x); ``_sign_int`` is its sign.  The Sturm
chain is the negated primitive pseudo-remainder sequence, each member
sign-corrected to a positive integer multiple of the chain over Q, so
every count is the same.  ``isolate_real_roots`` bisects with integer
numerators over one denominator and counts every sub-interval with the
one chain of its root form.

Isolation, refinement and the trace check take a polynomial's root
form (:class:`RootForm`), built once by :func:`root_form`: its coprime
integer coefficients, the smaller polynomial a symmetry gives, and that
polynomial's Sturm chain.  Two identities halve the degree of every
chain and evaluation:

- an even lift p(x) = F(x^2) has b^(2d) p(a/b) = b'^d F(a'/b') with
  a' = a^2, b' = b^2, the same integer ``_eval_int`` gives;
- a palindrome p(x) = x^k g(x + 1/x) of degree 2k with p(+-1) != 0 has
  b^(2k) p(a/b) = (ab)^k g((a^2 + b^2)/(ab)), again the same integer.

Every form gives the same signs and the same root counts, read from
the small chain piecewise (at x^2, or at s = x + 1/x on each of
(-oo, -1), (-1, 0), (0, 1) and (1, oo)), so the results are those of
p's own chain.  Alexander factors are palindromes (Delta(t) and
t^(2k) Delta(1/t) agree, and Delta(+-1) != 0), and a certify leaf is
an even lift.

``refine_isolating_interval`` needs no chain: its interval holds
exactly one root of a square-free polynomial, a root of first
multiplicity, so the polynomial has opposite signs at the two
endpoints.  Its result is defined as the interval that bisection on
those signs returns, which is the half a Sturm count picks at each
step: the cell of the dyadic subdivision of the interval, at the first
level no wider than the requested width, that holds the root; or, when
a grid point of that subdivision is the root itself, the same for the
interval bisection nudges to when it meets that point as a midpoint.
It finds that cell by Abbott's quadratic interval refinement
("Quadratic Interval Refinement for Real Roots"): secant guesses on the
integer grid indices, with a sub-cell count that squares after each
guess that lands, so a root to 10^-32 takes about 20 evaluations where
bisection takes about 108.  Fractions are built only for the arguments
and the results.

Yun's ``squarefree_decomposition`` runs on integers too: the gcds are
primitive pseudo-remainder sequences (``_int_gcd``), through
``_pseudo_divmod``, the pseudo-division that the Sturm chain and the
reduction and pivot tests in ``quotient`` share, and every division is
an exact integer division of primitive polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
            r2 = _primitive_part(r2)
        r0, r1 = r1, r2
    return list(r0)


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a / b for integer polynomials (constant term first) where b is
    nonzero and divides a with an integer quotient, as it does when b is
    primitive and divides a over Q (Gauss's lemma): each step of the
    long division divides exactly."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] // lead
        if c:
            q[i] = c
            r[i:i + db] = [x - c * y for x, y in zip(r[i:i + db], b)]
    return q


def _primitive_part(a: Sequence[int]) -> List[int]:
    """A nonzero integer polynomial divided by its content."""
    content = gcd(*a)
    return [c // content for c in a]


def _int_derivative(a: Sequence[int]) -> List[int]:
    return [k * c for k, c in enumerate(a) if k]


def _int_difference(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """a - b for integer polynomials, trailing zeros trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for k, c in enumerate(b):
        out[k] -= c
    while out and not out[-1]:
        out.pop()
    return out


def squarefree_decomposition(a: Poly) -> List[Tuple[Poly, int]]:
    """Yun's algorithm: pairwise-coprime monic square-free factors with
    multiplicities whose product (with multiplicity) rebuilds the input
    up to its leading unit.

    It runs on integer polynomials.  The input is scaled once to
    coprime integer coefficients; every gcd is made primitive, so each
    quotient is an exact integer division (Gauss's lemma), and b and c,
    which Yun divides by the same gcd, stay the same multiple of their
    values over Q, so c - b' does too.  Fractions are built only for
    the monic factors."""
    if a.is_zero:
        raise ValueError("square-free decomposition of the zero polynomial")
    if a.degree == 0:
        return []
    b = _int_multiple(a)
    c = _int_derivative(b)
    g = _int_gcd(b, c)
    if len(g) == 1:
        return [(a.monic(), 1)]
    g = _primitive_part(g)
    b, c = _exact_quotient(b, g), _exact_quotient(c, g)
    out: List[Tuple[Poly, int]] = []
    i = 1
    while len(b) > 1:
        z = _int_difference(c, _int_derivative(b))
        f = _primitive_part(_int_gcd(b, z)) if z else b
        if len(f) > 1:
            out.append((Poly(f).monic(), i))
        b = _exact_quotient(b, f)
        c = _exact_quotient(z, f) if z else z
        i += 1
    return out


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


def _eval_int(coeffs: Sequence[int], a: int, b: int) -> int:
    """The integer b^d * p(a/b), where ``coeffs`` are the integer
    coefficients (ascending, degree d) of p, by homogeneous Horner over
    ints.  For b > 0 it has the sign of p(a/b), and at one b its values
    are those of p times the one factor b^d."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * power
        power *= b
    return acc


def _sign_int(coeffs: Sequence[int], a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0, where ``coeffs`` are the integer
    coefficients of a positive multiple of p (see :func:`_eval_int`)."""
    value = _eval_int(coeffs, a, b)
    return (value > 0) - (value < 0)


def _variations(signs: Iterable[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _int_sturm_chain(p: Poly) -> List[List[int]]:
    """The Sturm chain of ``p`` (degree >= 1), each member a positive
    integer multiple of the Sturm member over Q, which keeps every sign
    and so every count (see :func:`_sturm_chain`)."""
    return _sturm_chain(_int_multiple(p))


def _sturm_chain(top: Sequence[int]) -> List[List[int]]:
    """The Sturm chain of the integer polynomial ``top`` (degree >= 1),
    each member a positive integer multiple of the Sturm member over Q.

    It is the negated primitive pseudo-remainder sequence of ``top``
    and its content-free derivative.  With f prev = q cur + r, the
    remainder r is f times a positive multiple of prev mod cur, so
    -r / content(r) is a positive multiple of the next member when
    f > 0 and r / content(r) when f < 0.  The last member is
    gcd(top, top') up to a constant factor.
    """
    chain = [list(top), _primitive_part(_int_derivative(top))]
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
    """Sign variations of an integer Sturm chain at a/b, b > 0, counted
    in one pass over the members' values."""
    count, last = 0, 0
    for q in chain:
        value = _eval_int(q, a, b)
        if value:
            if last and (value < 0) != (last < 0):
                count += 1
            last = value
    return count


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


def _cauchy_bound(coeffs: Sequence[int]) -> Fraction:
    """The Cauchy bound 1 + max |c_i| / |c_d| of the polynomial with
    integer coefficients ``coeffs`` (degree d, ascending), which is the
    same for every nonzero multiple of it."""
    return 1 + Fraction(max(map(abs, coeffs[:-1]), default=0), abs(coeffs[-1]))


class RootForm:
    """A polynomial p built once for root isolation, refinement and the
    trace check: ``ints``, the coprime integer coefficients of a
    positive multiple of p; ``small``, the polynomial that a symmetry of
    p reduces it to; and ``chain``, the Sturm chain of ``small``.  This
    base form uses no symmetry, so ``small`` is ``ints``;
    :func:`root_form` picks the form.

    Every form answers two questions about p at x = a/b, b > 0.
    ``value(a, b)`` is the integer ``_eval_int(ints, a, b)``, computed
    from ``small``, so its sign is that of p(x) and refinement takes
    the same path on every form.  ``_below(a, b)`` is the number of
    distinct real roots of p below x, for x not a root, read off
    ``chain``.  ``squarefree`` tells whether p is square-free."""

    __slots__ = ("ints", "small", "chain", "squarefree", "_low")

    def __init__(self, ints: List[int], small: List[int]):
        self.ints = ints
        self.small = small
        self.chain = _sturm_chain(small) if len(small) > 1 else [small]
        self.squarefree = len(self.chain[-1]) == 1
        self._low = _chain_variations(self.chain, None)

    def value(self, a: int, b: int) -> int:
        return _eval_int(self.ints, a, b)

    def _below(self, a: int, b: int) -> int:
        return self._low - _int_variations(self.chain, a, b)


class _EvenLift(RootForm):
    """p(x) = F(x^2), with ``small`` = F: b^(2d) p(a/b) is
    ``_eval_int(F, a^2, b^2)``.  The real roots of p are the pairs
    +-sqrt(r) over the positive roots r of F, so below x >= 0 lie the
    negative ones and those in [0, x), which are the roots of F in
    (0, x^2), and below x < 0 lie those whose square exceeds x^2.  p is
    square-free exactly when F is and F(0) != 0."""

    __slots__ = ("_zero", "_high")

    def __init__(self, small: List[int]):
        ints = [0] * (2 * len(small) - 1)
        ints[::2] = small
        super().__init__(ints, small)
        self.squarefree = self.squarefree and small[0] != 0
        self._zero = _int_variations(self.chain, 0, 1)
        self._high = _chain_variations(self.chain, None, at_plus_infinity=True)

    def value(self, a: int, b: int) -> int:
        return _eval_int(self.small, a * a, b * b)

    def _below(self, a: int, b: int) -> int:
        square = _int_variations(self.chain, a * a, b * b)
        if a < 0:
            return square - self._high
        return 2 * self._zero - self._high - square


class _Palindrome(RootForm):
    """p(x) = x^k g(x + 1/x) of degree 2k with p(1) and p(-1) nonzero,
    with ``small`` = g: b^(2k) p(a/b) is ``_eval_int(g, a^2 + b^2, ab)``.
    s = x + 1/x maps (-oo, -1) increasing and (-1, 0) decreasing onto
    (-oo, -2), and (0, 1) decreasing and (1, oo) increasing onto
    (2, oo).  So each root s of g below -2 gives one root of p in each
    of the first two pieces, each root above 2 one in each of the last
    two, and the other roots of g give none; x = -1, 0, 1 are never
    roots.  p is square-free exactly when g is, since p'(x) =
    x^k (1 - 1/x^2) g'(s) at a root."""

    __slots__ = ("_ends",)

    def __init__(self, ints: List[int]):
        super().__init__(ints, _palindrome_core(ints))
        chain = self.chain
        self._ends = (
            self._low,
            _int_variations(chain, -2, 1),
            _int_variations(chain, 2, 1),
            _chain_variations(chain, None, at_plus_infinity=True),
        )

    def value(self, a: int, b: int) -> int:
        return _eval_int(self.small, a * a + b * b, a * b)

    def _below(self, a: int, b: int) -> int:
        low, minus_two, two, high = self._ends
        # Roots of p in (-oo, -1), and in (0, 1).
        left, right = low - minus_two, two - high
        if a == -b:
            return left
        if a == 0:
            return 2 * left
        if a == b:
            return 2 * left + right
        num, den = a * a + b * b, a * b
        if den < 0:
            num, den = -num, -den
        s = _int_variations(self.chain, num, den)
        if a < -b:
            return low - s
        if a < 0:
            return left + s - minus_two
        if a < b:
            return 2 * left + s - high
        return 2 * left + right + two - s


def _palindrome_core(ints: Sequence[int]) -> List[int]:
    """The integer polynomial g with p(x) = x^k g(x + 1/x), for the
    palindromic integer polynomial p of degree 2k.  x^-k p(x) is
    c_k + sum_j c_(k+j) (x^j + x^-j), and x^j + x^-j = P_j(x + 1/x) with
    P_0 = 2, P_1 = s and P_(j+1) = s P_j - P_(j-1).  The coefficients of
    p are integer combinations of those of g, so g is primitive when p
    is."""
    k = len(ints) // 2
    core = [ints[k]] + [0] * k
    prev, cur = [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(cur):
            core[i] += ints[k + j] * c
        prev, cur = cur, _int_difference([0] + cur, prev)
    return core


def root_form(p: Poly) -> RootForm:
    """The :class:`RootForm` of the nonzero ``p``: an even lift F(x^2)
    when p of degree >= 2 has only even powers; else the core g of
    p(x) = x^k g(x + 1/x) when p is palindromic of even degree >= 2
    with p(1) and p(-1) nonzero; else p itself.  Each symmetric form
    halves the degree of the chain and of every evaluation."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root form")
    ints = _int_multiple(p)
    if len(ints) >= 3:
        if not any(ints[1::2]):
            return _EvenLift(ints[::2])
        if (len(ints) % 2 and ints == ints[::-1] and sum(ints)
                and sum(ints[::2]) != sum(ints[1::2])):
            return _Palindrome(ints)
    return RootForm(ints, ints)


def _interior_non_root(
    evaluate: Callable[[int, int], int], a: int, b: int, den: int
) -> Tuple[int, int, int, int]:
    """An interior point of (a/den, b/den), den > 0, that is not a root
    of the polynomial whose integer values ``evaluate`` gives (see
    :class:`RootForm`).

    The point is the midpoint, nudged by ``mid += step; step /= 2`` from
    ``step`` a quarter of the width while it is a root.  All three
    points are held as numerators over one denominator ``e``, a multiple
    of ``den`` that doubles whenever the next step would not be an
    integer, and come back as ``(a, mid, b, e)``; no Fraction is
    built."""
    a, b, e = 4 * a, 4 * b, 4 * den
    mid, step = (a + b) // 2, (b - a) // 4
    while True:
        if evaluate(mid, e):
            return a, mid, b, e
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


def _bisect(form: RootForm, a: int, b: int, den: int) -> List[Tuple[int, int, int]]:
    """Isolating intervals ``(a', b', den')`` of the real roots in
    (a/den, b/den), whose endpoints are not roots, by bisection on the
    root counts of ``form``."""
    below = form._below
    found: List[Tuple[int, int, int]] = []
    stack = [(a, b, den, below(a, den), below(b, den))]
    while stack:
        a, b, den, below_lo, below_hi = stack.pop()
        count = below_hi - below_lo
        if count == 0:
            continue
        if count == 1:
            found.append((a, b, den))
            continue
        a, mid, b, e = _interior_non_root(form.value, a, b, den)
        below_mid = below(mid, e)
        stack.append((*_lowest(mid, b, e), below_mid, below_hi))
        stack.append((*_lowest(a, mid, e), below_lo, below_mid))
    return found


def isolate_real_roots(p: Union[Poly, RootForm]) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational open intervals, one distinct real root each.

    ``p`` is a Poly or its :class:`RootForm`; a caller that also refines
    or trace-checks the roots builds the form once and passes it.
    Requires square-free input; endpoints are never roots.  Intervals
    come back sorted left to right.  The bisection runs on integer
    numerators over a common denominator per interval, and each
    endpoint's root count is computed once, from the form's chain.

    The intervals are those of bisection on the Cauchy bound (-B, B)
    with p's own Sturm chain: every form gives the same counts and the
    same signs.
    """
    if isinstance(p, Poly):
        if p.is_zero:
            raise ValueError("cannot isolate roots of the zero polynomial")
        p = root_form(p)
    if len(p.ints) == 1:
        return []
    if not p.squarefree:
        raise ValueError("input must be square-free")

    bound = _cauchy_bound(p.ints)
    n, den = bound.numerator, bound.denominator
    found = _bisect(p, -n, n, den)
    out = sorted([(Fraction(a, d), Fraction(b, d)) for a, b, d in found])
    if len(out) != p._below(n, den) - p._below(-n, den):
        raise AssertionError("isolation lost a root")
    return out


def refine_isolating_interval(
    p: Union[Poly, RootForm], lo: Fraction, hi: Fraction, max_width: Fraction
) -> Tuple[Fraction, Fraction]:
    """Shrink an isolating interval below ``max_width``: the interval
    bisection returns, found by Abbott's quadratic interval refinement.

    ``p`` is a Poly or its :class:`RootForm`; every form gives the same
    integer values, so the result does not depend on the form.  ``p``
    must be square-free and the interval must contain exactly one root
    of ``p``.  That root is then simple, so ``p`` has opposite signs at
    the two endpoints, and no Sturm chain is needed.  Raises
    ``ValueError`` when ``max_width`` is not positive, or when the
    endpoints do not bracket a sign change (no root, two roots, or an
    endpoint that is a root).  The returned endpoints are again
    non-roots.

    The result is that of bisection, which keeps the half whose
    endpoint signs differ.  Let k be the least level with
    ``(hi - lo) / 2^k <= max_width``: bisection ends on the level-k cell
    of the dyadic subdivision of (lo, hi) that holds the root, unless a
    grid point of level <= k is the root itself.  It meets such a point
    g first as the midpoint of a cell (g - h, g + h), nudges the
    midpoint to g + h/2 and bisects (g - h, g + h/2) on, where g lies
    at 2/3 and so on no grid point again.  Which cell holds the root
    does not depend on how it is found, so :func:`_grid_cell` searches
    the level-k grid by secant guesses instead of halvings and returns
    the same cell; a root on the grid restarts the search on the nudged
    interval, at most once.  The search runs on integer numerators over
    one denominator; Fractions are built only for the arguments and the
    result.
    """
    lo, hi = _frac(lo), _frac(hi)
    max_width = _frac(max_width)
    if max_width <= 0:
        raise ValueError(f"max_width must be positive, got {max_width}")
    if isinstance(p, RootForm):
        evaluate = p.value
    else:
        evaluate = partial(_eval_int, _int_multiple(p))
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    width_num, width_den = max_width.numerator, max_width.denominator
    while True:
        # Grid point i of level k is (a 2^k + i (b - a)) / (den 2^k).
        over = -(-(b - a) * width_den // (width_num * den))
        k = (over - 1).bit_length() if over > 1 else 0
        a, step, den = a << k, b - a, den << k
        common = gcd(a, step, den)
        a, step, den = a // common, step // common, den // common
        v_lo = evaluate(a, den)
        v_hi = evaluate(a + (step << k), den)
        if not (v_lo < 0 < v_hi or v_hi < 0 < v_lo):
            raise ValueError(f"p does not change sign across ({lo}, {hi})")
        i, on_root = _grid_cell(evaluate, a, step, den, 1 << k, v_lo, v_hi)
        if not on_root:
            return Fraction(a + i * step, den), Fraction(a + (i + 1) * step, den)
        # Bisection's nudge: from the cell (g - h, g + h) of the coarsest
        # level holding the root g = x_i, on to (g - h, g + h/2).
        h = i & -i
        a, b, den = 2 * (a + (i - h) * step), 2 * a + (2 * i + h) * step, 2 * den


def _grid_cell(
    evaluate: Callable[[int, int], int],
    a: int, step: int, den: int, n: int, v_lo: int, v_hi: int,
) -> Tuple[int, bool]:
    """``(i, False)`` for the cell (x_i, x_(i+1)) holding the root of
    the polynomial whose integer values ``evaluate`` gives, on the grid
    x_i = (a + i step) / den, 0 <= i <= n, step > 0, whose end values
    ``v_lo`` and ``v_hi`` have opposite signs and bracket exactly one
    root; ``(i, True)`` when that root is the grid point x_i.

    Abbott's quadratic interval refinement on grid indices: the secant
    through the bracket's end values is rounded into one of about 2^s
    sub-cells, and the grid points on both sides of it are evaluated.
    When the sign changes inside that sub-cell the bracket becomes it
    and s doubles, so the number of correct bits roughly doubles per
    step once the secant is accurate; otherwise the bracket keeps the
    side that holds the root and s halves.  Every bracket holds the
    root, and none but a single cell holds no grid point inside, so the
    cell is reached, or the root found on the grid.
    """
    lo, hi, s = 0, n, 1
    positive = v_lo > 0
    while hi - lo > 1:
        width = hi - lo
        cell = width >> s or 1
        left = lo + width * v_lo // (v_lo - v_hi) // cell * cell
        for i in (left, left + cell):
            if lo < i < hi:
                value = evaluate(a + i * step, den)
                if not value:
                    return i, True
                if (value > 0) == positive:
                    lo, v_lo = i, value
                else:
                    hi, v_hi = i, value
                    break
        s = 2 * s if hi - lo <= cell else s // 2 or 1
    return lo, False


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
