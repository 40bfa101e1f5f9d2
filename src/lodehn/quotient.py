"""The two coefficient rings of the meridian representation's adjoint,
Q[tau]/(F) and Q[tau, tau^-1] with tau = t^2, one class each, and exact
linear algebra over Q[tau]/(F).

Both ring classes offer ``zero``, ``one``, ``coerce`` and ``evaluate``:
the images of integer Laurent polynomials in the ring's variable under
the ring homomorphism that sends it to itself (reduction mod F on
Q[tau]/(F), the identity on Q[tau, tau^-1]).  :class:`MatrixOverField`
eliminates over Q[tau]/(F) only; Q[tau, tau^-1] serves the symbolic
checks.  Nothing here depends on what the variable stands for: the
tests run the same classes over Q[t]/(F(t^2)) and Q[t, t^-1].

The modulus F is kept monic and square-free, and coprime to
tau^2 - tau = tau (tau - 1), so tau and tau - 1 are units on every
branch (see :class:`ModulusBranch`).  A zero-divisor pivot in the linear
algebra below splits F into two coprime factors (D5-style dynamic
evaluation); the elimination then forks and reports one result per
leaf branch, with the split lineage preserved for reporting.  Products
of leaf moduli always rebuild the original modulus, so no root is ever
lost or duplicated.

The elimination reports the rank on each leaf and the echelon rows it
ended with, from which a larger system resumes.  It is fraction-free:
each pivot, the first nonzero entry of its column in row order, is
tested for a unit by one gcd with m, a primitive pseudo-remainder
sequence on the pivot's integer numerators and the integer modulus (a
proper gcd is the split), and the rows below it are cleared by
row <- pivot * row - f * pivot_row, with no inverse and no division.
Every entry is a unit multiple of its counterpart in the reduced row
echelon form, so the zero tests, the gcds and hence the splits are
those of Gauss-Jordan elimination with inverted pivots; that form and
its kernel basis serve as the test oracle.  Resumed from known echelon
rows, the elimination pivots on them in their columns and takes no gcd
for them: a unit mod m is a unit mod every factor of m.

Below, m is the modulus and t the ring's variable.  Q[t]/(m) runs on
integers.  An element is its residue of degree below d = deg m, stored
as one tuple of integer numerators (constant term first, trailing zeros
trimmed, empty for zero) over one positive denominator, coprime to them
as a whole.  Every residue thus has exactly
one representation, and equality compares integers.  The branch keeps m
also as a primitive integer polynomial with leading coefficient l > 0.

* Products use Kronecker substitution: each operand's numerators are
  packed into one Python int, one slot of w bits per coefficient, with w
  chosen from a bound on the result so that no slot overflows; one
  bigint product then gives the whole product polynomial.  Its terms of
  degree d .. 2d-2 are reduced through a table that the branch builds on
  first use: the integer vectors scale * t^e mod m with
  scale = l^(d-1), each packed once per slot width.  The reduced
  product is scale times the low part plus one packed row per high
  coefficient, over the denominator scale times the operands'
  denominators; it is unpacked once and divided by its content.
* Evaluation builds the residue of t^e once for every exponent e in
  range [lo, hi], one multiplication by t or 1/t at a time, as integer
  vectors over the one denominator lcm(l^hi, m_0^-lo), m_0 the constant
  term of the integer modulus, nonzero because t is a unit; each
  polynomial is then an integer combination of those vectors.

The arithmetic and evaluation build no Fraction; the read-only
``value`` gives the residue as a Poly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .polynomials import (
    LaurentPoly,
    Poly,
    _int_gcd,
    _int_multiple,
    _pseudo_divmod,
)

Scalar = Union[int, Fraction]
IntPoly = List[int]  # integer coefficients, constant term first


@dataclass(frozen=True)
class SplitRecord:
    parent: Poly
    factor: Poly
    cofactor: Poly


class ModulusBranch:
    """A monic square-free modulus F in tau = t^2, coprime to
    tau^2 - tau, together with its split lineage.  It also holds F as a
    primitive integer polynomial and, once a product needs them, the
    reduction table and its packed rows (see the module docstring);
    these live as long as the branch.

    The branch exists only where the reducible non-abelian
    representation does: tau and tau - 1 must be units mod F.  At
    tau = 1, Ad(x) = 1, so H^0 would be a line and B^1 = 3 would be
    wrong; at tau = 0 the representation is undefined.  tau^2 - tau =
    tau (tau - 1) has only linear factors, so gcd(F, tau^2 - tau) = 1
    exactly when F(0) and F(1) are nonzero, which the constructor tests
    on the integer modulus (else ValueError).  A root at tau = -1 is a
    root t = +-i, where t and t^2 - 1 are units too.  Every factor of
    such an F is coprime to tau^2 - tau too, so the branches that
    :meth:`split` builds pass the same test."""

    __slots__ = ("modulus", "lineage", "_ints", "_table", "_packed")

    def __init__(self, modulus: Poly, lineage: Tuple[SplitRecord, ...] = ()):
        if modulus.is_zero or modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        modulus = modulus.monic()
        ints = _int_multiple(modulus)
        if len(_int_gcd(ints, [i * c for i, c in enumerate(ints)][1:])) > 1:
            raise ValueError("modulus must be square-free")
        for point, value in ((0, ints[0]), (1, sum(ints))):
            if not value:
                raise ValueError(
                    f"modulus vanishes at tau = {point}: tau and tau - 1 must be units"
                )
        self.modulus = modulus
        self.lineage = lineage
        self._ints = ints
        self._table: Optional[Tuple[int, int, List[IntPoly]]] = None
        self._packed: Dict[int, List[int]] = {}

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def element(self, value: Union[Poly, Scalar]) -> "AlgebraicElement":
        if not isinstance(value, Poly):
            value = Poly([value])
        return AlgebraicElement(self, value)

    def t(self) -> "AlgebraicElement":
        """The residue class of the variable (tau on the branches that
        ``certify`` builds)."""
        return self.element(Poly([0, 1]))

    def split(self, factor: Poly) -> Tuple["ModulusBranch", "ModulusBranch"]:
        """Split off a proper monic divisor of the modulus."""
        factor = factor.monic()
        cofactor = self.modulus // factor
        if factor * cofactor != self.modulus:
            raise ValueError("factor does not divide the modulus")
        if factor.degree < 1 or cofactor.degree < 1:
            raise ValueError("split needs a proper divisor")
        record = SplitRecord(self.modulus, factor, cofactor)
        lineage = self.lineage + (record,)
        return ModulusBranch(factor, lineage), ModulusBranch(cofactor, lineage)

    def _reduction(self) -> Tuple[int, int, List[IntPoly]]:
        """(scale, bits, rows): rows[k] = scale * t^(d+k) mod m as an
        integer vector for k = 0 .. d-2, with scale = l^(d-1), and a bit
        length that bounds scale and every row entry."""
        if self._table is None:
            m = self._ints
            d = len(m) - 1
            lead = m[-1]
            # v = l^(k+1) t^(d+k) mod m is integral; it starts from
            # l t^d = -(m_0 + ... + m_(d-1) t^(d-1)) mod m.
            v = [-c for c in m[:-1]]
            rows = []
            for k in range(d - 1):
                rows.append([lead ** (d - 2 - k) * c for c in v] if lead != 1 else v)
                top = v[-1]
                v = [lead * a - top * c for a, c in zip([0] + v[:-1], m)]
            scale = lead ** (d - 1)
            bound = max([scale] + [max(map(abs, row)) for row in rows])
            self._table = (scale, bound.bit_length(), rows)
        return self._table

    def _packed_rows(self, width: int) -> List[int]:
        """The reduction table's rows packed at slot width ``width``."""
        rows = self._packed.get(width)
        if rows is None:
            rows = [_pack(row, width) for row in self._reduction()[2]]
            self._packed[width] = rows
        return rows

    def sort_key(self) -> Tuple:
        return (self.modulus.degree, self.modulus.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModulusBranch) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"ModulusBranch({self.modulus!r})"


class SplitRequired(Exception):
    """A pivot was a zero divisor; retry on the two sub-branches."""

    def __init__(self, low: ModulusBranch, high: ModulusBranch):
        super().__init__(
            f"modulus split into {low.modulus!r} and {high.modulus!r}"
        )
        self.low = low
        self.high = high


def _slot_width(bits: int) -> int:
    """A Kronecker slot width, a multiple of 8, that holds every signed
    coefficient of absolute value below 2^bits.  Widths come from the
    ladder 48, 64, 96, 128, 192, ..., so that a branch packs its table
    rows at few widths."""
    width = 1 << max(6, bits.bit_length())
    return 3 * width // 4 if 4 * bits < 3 * width else width


def _bias(width: int, n: int) -> int:
    """2^(width-1) in each of n slots."""
    half = (1 << (width - 1)).to_bytes(width >> 3, "little")
    return int.from_bytes(half * n, "little")


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The sum of coeffs[i] * 2^(width * i); each coefficient must be
    below 2^(width-1) in absolute value."""
    size = width >> 3
    half = 1 << (width - 1)
    raw = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _bias(width, len(coeffs))


def _unpack(packed: int, width: int, n: int) -> IntPoly:
    """The n coefficients that :func:`_pack` packed into ``packed``."""
    size = width >> 3
    half = 1 << (width - 1)
    raw = (packed + _bias(width, n)).to_bytes(n * size, "little")
    return [
        int.from_bytes(raw[i:i + size], "little") - half
        for i in range(0, n * size, size)
    ]


def _lincomb(ku: int, u: Sequence[int], kv: int, v: Sequence[int]) -> IntPoly:
    """ku * u + kv * v for integer polynomials, trailing zeros trimmed."""
    if len(u) < len(v):
        ku, u, kv, v = kv, v, ku, u
    out = [ku * x + kv * y for x, y in zip(u, v)]
    out += [ku * x for x in u[len(v):]]
    while out and not out[-1]:
        out.pop()
    return out


_new = object.__new__


def _make(branch: ModulusBranch, num: Tuple[int, ...], den: int) -> "AlgebraicElement":
    """An element from numerators and a denominator already in normal
    form."""
    element = _new(AlgebraicElement)
    element.branch = branch
    element.num = num
    element.den = den
    return element


def _element(branch: ModulusBranch, nums: IntPoly, den: int) -> "AlgebraicElement":
    """The element nums / den (den nonzero, fewer than d numerators),
    brought to normal form; ``nums`` may be consumed."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _make(branch, (), 1)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return _make(branch, tuple(nums), den)


def _reduced(branch: ModulusBranch, nums: IntPoly, den: int) -> "AlgebraicElement":
    """The residue of nums / den for numerators of any degree."""
    m = branch._ints
    if len(nums) > len(m) - 1:
        f, _, nums = _pseudo_divmod(nums, m)
        den *= f
    return _element(branch, nums, den)


def _product(a: "AlgebraicElement", b: "AlgebraicElement") -> "AlgebraicElement":
    """a * b for nonzero a and b on one branch (see the module
    docstring)."""
    branch = a.branch
    u, v = a.num, b.num
    den = a.den * b.den
    if len(u) == 1 or len(v) == 1:
        if len(u) != 1:
            u, v = v, u
        c = u[0]
        return _element(branch, [c * x for x in v], den)
    n = len(u) + len(v) - 1
    d = len(branch._ints) - 1
    bits = (
        max(map(abs, u)).bit_length()
        + max(map(abs, v)).bit_length()
        + min(len(u), len(v)).bit_length()
    )
    if n <= d:
        width = _slot_width(bits)
        product = _pack(u, width) * _pack(v, width)
        return _element(branch, _unpack(product, width, n), den)
    # Every reduced coefficient is scale * c_i + sum_k c_(d+k) row_k[i],
    # below 2^bits * 2^table_bits * (n - d + 1) in absolute value.
    scale, table_bits, _ = branch._reduction()
    width = _slot_width(bits + table_bits + (n - d + 1).bit_length())
    rows = branch._packed_rows(width)
    size = width >> 3
    half = 1 << (width - 1)
    product = _pack(u, width) * _pack(v, width)
    raw = (product + _bias(width, n)).to_bytes(n * size, "little")
    acc = int.from_bytes(raw[:d * size], "little") - _bias(width, d)
    if scale != 1:
        acc *= scale
    for i, row in zip(range(d * size, n * size, size), rows):
        c = int.from_bytes(raw[i:i + size], "little") - half
        if c:
            acc += c * row
    return _element(branch, _unpack(acc, width, d), den * scale)


class AlgebraicElement:
    """An element of Q[t]/(m): the residue num / den, with ``num`` a
    tuple of integer numerators of degree below deg m and ``den > 0``
    coprime to them (see the module docstring)."""

    __slots__ = ("branch", "num", "den")

    def __init__(self, branch: ModulusBranch, value: Poly):
        den = lcm(*[c.denominator for c in value.coeffs])
        nums = [c.numerator * (den // c.denominator) for c in value.coeffs]
        normal = _reduced(branch, nums, den)
        self.branch = branch
        self.num = normal.num
        self.den = normal.den

    @property
    def value(self) -> Poly:
        """The reduced representative, as a Poly."""
        return Poly([Fraction(c, self.den) for c in self.num])

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def _same_branch(self, other: "AlgebraicElement") -> None:
        if other.branch is not self.branch and other.branch != self.branch:
            raise ValueError("mixed moduli in quotient-ring arithmetic")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AlgebraicElement):
            return (
                self.num == other.num
                and self.den == other.den
                and (self.branch is other.branch or self.branch == other.branch)
            )
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            return (
                len(self.num) == 1
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        if len(self.num) > 1:
            return hash((self.branch, self.num, self.den))
        # A constant equals the scalar of its value, so it hashes alike.
        return hash(Fraction(self.num[0], self.den)) if self.num else 0

    def __neg__(self) -> "AlgebraicElement":
        return _make(self.branch, tuple([-c for c in self.num]), self.den)

    def _plus(self, other, sign: int) -> "AlgebraicElement":
        """self + sign * other."""
        if isinstance(other, AlgebraicElement):
            self._same_branch(other)
            if not other.num:
                return self
            if not self.num:
                return other if sign > 0 else -other
            a, b = self.den, other.den
            if a == b:
                fa, fb, den = 1, sign, a
            else:
                g = gcd(a, b)
                fa, fb = b // g, sign * (a // g)
                den = a * (b // g)
            return _element(self.branch, _lincomb(fa, self.num, fb, other.num), den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return self
        # self + sign * n / q puts n * den into the constant term of the
        # numerators taken over den * q.
        n, q = sign * other.numerator, other.denominator
        nums = [q * c for c in self.num] if q != 1 else list(self.num)
        if nums:
            nums[0] += n * self.den
        else:
            nums = [n]
        return _element(self.branch, nums, self.den * q)

    def __add__(self, other) -> "AlgebraicElement":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "AlgebraicElement":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "AlgebraicElement":
        return (-self)._plus(other, 1)

    def __mul__(self, other) -> "AlgebraicElement":
        if isinstance(other, AlgebraicElement):
            self._same_branch(other)
            if not self.num or not other.num:
                return _make(self.branch, (), 1)
            return _product(self, other)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, q = other.numerator, other.denominator
        if n == q:
            return self
        return _element(self.branch, [n * c for c in self.num], self.den * q)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"AlgebraicElement({self.value!r} mod {self.branch.modulus!r})"


class QuotientRing:
    """Q[t]/(m) for one modulus branch.  Coercing an element of another
    branch reduces its representative modulo this branch's modulus."""

    __slots__ = ("branch", "zero", "one")

    def __init__(self, branch: ModulusBranch):
        self.branch = branch
        self.zero = branch.element(0)
        self.one = branch.element(1)

    def coerce(self, x) -> AlgebraicElement:
        if isinstance(x, AlgebraicElement):
            if x.branch is self.branch or x.branch == self.branch:
                return x
            return _reduced(self.branch, list(x.num), x.den)
        if isinstance(x, (int, Fraction, Poly)):
            return self.branch.element(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into the quotient ring")

    def evaluate(self, polys: Sequence[Dict[int, int]]) -> List[AlgebraicElement]:
        """The residues of integer Laurent polynomials ``{exponent:
        coefficient}`` at the variable t mod m (see the module
        docstring); t is a unit because the branch refuses t | m."""
        branch = self.branch
        m = branch._ints
        d = len(m) - 1
        lead, low = m[d], m[0]
        exponents = [e for p in polys for e in p]
        lo, hi = min(exponents + [0]), max(exponents + [0])
        # The residue of t^e has a denominator dividing l^e for e > 0
        # and m_0^-e for e < 0, so common * t^e has integer coefficients
        # for every e in range, and each division below is exact.
        common = lcm(lead**hi, low**-lo)
        powers = {0: [common] + [0] * (d - 1)}
        num = powers[0]
        for e in range(1, hi + 1):
            top = num[-1]
            num = [a - top * mk // lead for a, mk in zip([0] + num[:-1], m)]
            powers[e] = num
        num = powers[0]
        for e in range(-1, lo - 1, -1):
            bottom = num[0]
            num = [a - bottom * mk // low for a, mk in zip(num[1:] + [0], m[1:])]
            powers[e] = num
        out = []
        for p in polys:
            acc = [0] * d
            for e, c in p.items():
                if c:
                    acc = [a + c * s for a, s in zip(acc, powers[e])]
            out.append(_element(branch, acc, common))
        return out


class LaurentRing:
    """Laurent polynomials in one variable, Q[tau, tau^-1] for the
    adjoint, with LaurentPoly elements; used for symbolic checks, never
    for elimination."""

    zero = LaurentPoly()
    one = LaurentPoly(0, (1,))

    def coerce(self, x) -> LaurentPoly:
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly(0, (x,))
        raise TypeError(f"cannot coerce {type(x).__name__} into Q[t, t^-1]")

    def evaluate(self, polys: Sequence[Dict[int, int]]) -> List[LaurentPoly]:
        """Integer Laurent polynomials ``{exponent: coefficient}`` as
        elements of Q[t, t^-1]."""
        return [LaurentPoly.from_terms(p) for p in polys]


@dataclass
class NullspaceResult:
    """Rank and nullity of a system on one leaf branch, with the
    echelon rows its elimination ended with: each row zero left of its
    pivot, a unit, and no two pivots in one column."""

    ring: QuotientRing
    rank: int
    dim: int
    echelon: Tuple[Tuple[AlgebraicElement, ...], ...]

    @property
    def branch(self) -> ModulusBranch:
        return self.ring.branch


class MatrixOverField:
    """Rectangular matrix over one quotient-ring branch, Q[tau]/(F).
    Its first ``known`` rows may be known echelon rows (a
    :attr:`NullspaceResult.echelon`, or its rows reduced onto a factor
    of its modulus, where every unit stays a unit); the elimination
    then resumes from them."""

    __slots__ = ("rows", "cols", "entries", "ring", "known")

    def __init__(self, entries: Sequence[Sequence], ring: QuotientRing, known: int = 0):
        self.ring = ring
        self.entries = tuple([tuple([ring.coerce(e) for e in row]) for row in entries])
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        self.known = known
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("matrix rows have unequal lengths")

    def nullspace(self) -> List[NullspaceResult]:
        """Rank and nullity by fraction-free elimination, one result per
        leaf branch, sorted by leaf modulus; no kernel basis is built."""
        return _nullspace(self)


def _echelon(rows, cols: int, branch: ModulusBranch, known: int) -> List[Sequence]:
    """Echelon rows spanning ``rows`` over Q[t]/(m), by fraction-free
    forward elimination resumed from the ``known`` leading rows, which
    must already be echelon rows with unit pivots.  For every column the
    pivot row is the known row with its pivot there, else the first of
    the other rows, in row order from the pivot row, with a nonzero
    entry there; one gcd with m, on the entry's integer numerators and
    the integer modulus, tests that entry for a unit.  The other rows
    below it are cleared by row_r <- piv * row_r - f * row_pivot, a
    product skipped where an operand is zero.  Raises
    :class:`SplitRequired` on the gcd if a pivot is a zero divisor."""
    zero = _make(branch, (), 1)
    out = list(rows[:known])
    pivots = {next(c for c, e in enumerate(row) if e): row for row in out}
    work = [list(row) for row in rows[known:]]
    pr = 0
    for col in range(cols):
        if pr == len(work):
            break
        top = pivots.get(col)
        if top is None:
            sel = next((r for r in range(pr, len(work)) if work[r][col]), None)
            if sel is None:
                continue
            top = work[sel]
            g = _int_gcd(branch._ints, top[col].num)
            if len(g) > 1:
                raise SplitRequired(*branch.split(Poly(g)))
            work[pr], work[sel] = top, work[pr]
            pr += 1
            out.append(top)
        piv = top[col]
        tail = top[col + 1:]
        for row in work[pr:]:
            f = row[col]
            if f:
                row[col] = zero
                row[col + 1:] = [
                    (piv * a - f * b if b else piv * a) if a else -(f * b) if b else a
                    for a, b in zip(row[col + 1:], tail)
                ]
    return out


def _nullspace(matrix: MatrixOverField) -> List[NullspaceResult]:
    ring = matrix.ring
    try:
        echelon = _echelon(matrix.entries, matrix.cols, ring.branch, matrix.known)
    except SplitRequired as split:
        out: List[NullspaceResult] = []
        for sub in (split.low, split.high):
            out.extend(_nullspace(
                MatrixOverField(matrix.entries, QuotientRing(sub), matrix.known)
            ))
        out.sort(key=lambda res: res.branch.sort_key())
        return out
    rank = len(echelon)
    return [NullspaceResult(
        ring=ring, rank=rank, dim=matrix.cols - rank,
        echelon=tuple([tuple(row) for row in echelon]),
    )]
