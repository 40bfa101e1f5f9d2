"""The coefficient rings Q, Q[t]/(m) and Q[t, t^-1], one class each,
and exact linear algebra over Q or over Q[t]/(m).

Every ring class offers ``zero``, ``one`` and ``coerce``; the two that
:class:`MatrixOverField` eliminates over add ``is_zero`` and ``invert``,
and carry a ``branch`` (``None`` for Q).  The two rings of the meridian
representation, Q[t]/(m) and Q[t, t^-1], add ``evaluate``: the images
of integer Laurent polynomials under the ring homomorphism that sends t
to t (reduction mod m on Q[t]/(m), the identity on Q[t, t^-1]).

The modulus m is kept monic and square-free.  Inverting a zero divisor
splits m into two coprime factors (D5-style dynamic evaluation); the
linear algebra below forks when that happens and reports one result per
leaf branch, with the split lineage preserved for reporting.  Products
of leaf moduli always rebuild the original modulus, so no root is ever
lost or duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .polynomials import (
    T_POLY,
    LaurentPoly,
    Poly,
    laurent_residues,
    poly_gcd,
    poly_xgcd,
)

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class SplitRecord:
    parent: Poly
    factor: Poly
    cofactor: Poly


class ModulusBranch:
    """A monic square-free modulus together with its split lineage."""

    __slots__ = ("modulus", "lineage")

    def __init__(self, modulus: Poly, lineage: Tuple[SplitRecord, ...] = ()):
        if modulus.is_zero or modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        modulus = modulus.monic()
        if poly_gcd(modulus, modulus.derivative()).degree != 0:
            raise ValueError("modulus must be square-free")
        self.modulus = modulus
        self.lineage = lineage

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def element(self, value: Union[Poly, Scalar]) -> "AlgebraicElement":
        if not isinstance(value, Poly):
            value = Poly([value])
        return AlgebraicElement(self, value % self.modulus)

    def t(self) -> "AlgebraicElement":
        """The residue class of the variable t."""
        return self.element(T_POLY)

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

    def sort_key(self) -> Tuple:
        return (self.modulus.degree, self.modulus.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModulusBranch) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"ModulusBranch({self.modulus!r})"


class SplitRequired(Exception):
    """A zero divisor was inverted; retry on the two sub-branches."""

    def __init__(self, low: ModulusBranch, high: ModulusBranch):
        super().__init__(
            f"modulus split into {low.modulus!r} and {high.modulus!r}"
        )
        self.low = low
        self.high = high


class AlgebraicElement:
    """An element of Q[t]/(m), stored as its reduced representative."""

    __slots__ = ("branch", "value")

    def __init__(self, branch: ModulusBranch, value: Poly):
        if value.degree >= branch.modulus.degree:
            value = value % branch.modulus
        self.branch = branch
        self.value = value

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    def _coerce(self, other) -> Optional["AlgebraicElement"]:
        if isinstance(other, AlgebraicElement):
            if other.branch != self.branch:
                raise ValueError("mixed moduli in quotient-ring arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicElement(self.branch, Poly([other]))
        return None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.value == Poly([other])
        if isinstance(other, AlgebraicElement):
            return self.branch == other.branch and self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.branch, self.value))

    def __neg__(self) -> "AlgebraicElement":
        return AlgebraicElement(self.branch, -self.value)

    def __add__(self, other) -> "AlgebraicElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicElement(self.branch, self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other) -> "AlgebraicElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicElement(self.branch, self.value - o.value)

    def __rsub__(self, other) -> "AlgebraicElement":
        return (-self) + other

    def __mul__(self, other) -> "AlgebraicElement":
        if isinstance(other, int):
            if other == 0:
                return AlgebraicElement(self.branch, Poly())
            if other == 1:
                return self
            if other == -1:
                return -self
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicElement(self.branch, (self.value * o.value) % self.branch.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicElement":
        """Extended-Euclid inverse, raising :class:`SplitRequired` when
        the representative is a zero divisor."""
        if self.is_zero:
            raise ZeroDivisionError("inverting zero in a quotient ring")
        g, s, _ = poly_xgcd(self.value, self.branch.modulus)
        if g.degree == 0:
            return AlgebraicElement(self.branch, s % self.branch.modulus)
        low, high = self.branch.split(g)
        raise SplitRequired(low, high)

    def __repr__(self) -> str:
        return f"AlgebraicElement({self.value!r} mod {self.branch.modulus!r})"


class RationalRing:
    """The field Q, with Fraction elements."""

    branch: Optional[ModulusBranch] = None
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q")

    def is_zero(self, x: Fraction) -> bool:
        return x == 0

    def invert(self, x: Fraction) -> Fraction:
        return 1 / x


class QuotientRing:
    """Q[t]/(m) for one modulus branch.  Inverting a zero divisor raises
    :class:`SplitRequired`; coercing an element of another branch reduces
    its representative modulo this branch's modulus."""

    __slots__ = ("branch", "zero", "one")

    def __init__(self, branch: ModulusBranch):
        self.branch = branch
        self.zero = branch.element(0)
        self.one = branch.element(1)

    def coerce(self, x) -> AlgebraicElement:
        if isinstance(x, AlgebraicElement):
            if x.branch == self.branch:
                return x
            x = x.value
        if isinstance(x, (int, Fraction, Poly)):
            return self.branch.element(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into the quotient ring")

    def is_zero(self, x: AlgebraicElement) -> bool:
        return x.is_zero

    def invert(self, x: AlgebraicElement) -> AlgebraicElement:
        return x.inverse()

    def evaluate(self, polys: Sequence[Dict[int, int]]) -> List[AlgebraicElement]:
        """The residues of integer Laurent polynomials ``{exponent:
        coefficient}`` at t mod m."""
        return [
            AlgebraicElement(self.branch, residue)
            for residue in laurent_residues(polys, self.branch.modulus)
        ]


class LaurentRing:
    """Q[t, t^-1], with LaurentPoly elements; used for symbolic checks,
    never for elimination."""

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


Field = Union[RationalRing, QuotientRing]
CoefficientRing = Union[RationalRing, QuotientRing, LaurentRing]


@dataclass
class NullspaceResult:
    ring: Field
    rank: int
    dim: int
    basis: List[Tuple]

    @property
    def branch(self) -> Optional[ModulusBranch]:
        return self.ring.branch


class MatrixOverField:
    """Rectangular matrix over Q or over one quotient-ring branch."""

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, entries: Sequence[Sequence], ring: Field):
        self.ring = ring
        self.entries = tuple(tuple(ring.coerce(e) for e in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("matrix rows have unequal lengths")

    def apply(self, vector: Sequence) -> List:
        vec = [self.ring.coerce(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return [
            sum((row[k] * vec[k] for k in range(self.cols)), self.ring.zero)
            for row in self.entries
        ]

    def nullspace(self) -> List[NullspaceResult]:
        """Rank, nullity and an exact kernel basis, one result per leaf
        branch, sorted by leaf modulus."""
        return _nullspace(self)


def _echelon(rows, cols, ring):
    """Reduced row echelon form with deterministic pivoting: for every
    column take the first nonzero entry in row order.  Raises
    :class:`SplitRequired` if a pivot is a zero divisor."""
    work = [list(row) for row in rows]
    pivots: List[int] = []
    pr = 0
    for col in range(cols):
        sel = None
        for r in range(pr, len(work)):
            if not ring.is_zero(work[r][col]):
                sel = r
                break
        if sel is None:
            continue
        inv = ring.invert(work[sel][col])
        work[pr], work[sel] = work[sel], work[pr]
        work[pr] = [e * inv for e in work[pr]]
        for r in range(len(work)):
            if r != pr and not ring.is_zero(work[r][col]):
                f = work[r][col]
                work[r] = [work[r][k] - f * work[pr][k] for k in range(cols)]
        pivots.append(col)
        pr += 1
        if pr == len(work):
            break
    return pivots, work


def _nullspace(matrix: MatrixOverField) -> List[NullspaceResult]:
    ring = matrix.ring
    try:
        pivots, work = _echelon(matrix.entries, matrix.cols, ring)
    except SplitRequired as split:
        out: List[NullspaceResult] = []
        for sub in (split.low, split.high):
            out.extend(_nullspace(MatrixOverField(matrix.entries, QuotientRing(sub))))
        out.sort(key=lambda res: res.branch.sort_key())
        return out
    free_cols = [c for c in range(matrix.cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [ring.zero] * matrix.cols
        vec[fc] = ring.one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return [
        NullspaceResult(
            ring=ring,
            rank=len(pivots),
            dim=len(free_cols),
            basis=basis,
        )
    ]
