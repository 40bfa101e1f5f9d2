"""Certification pipeline for left-orderable Dehn filling intervals.

A two-bridge knot qualifies when its Alexander polynomial has a simple
positive real root other than 1 and the twisted cohomology of the
0-filled group vanishes at the corresponding reducible non-abelian
representation (local longitudinal rigidity).  Everything runs in exact
arithmetic.  Rigidity is decided per square-free Alexander factor F in
tau = t^2, over Q[tau]/(F), where the adjoint of the representation is
defined (see ``reps``).  The reports speak of t: their moduli and split
lineages are the tau-side ones inflated by tau -> t^2, and the real
roots t of a leaf modulus F_leaf(t^2) are isolated and trace-checked
on that polynomial.

The qualifying roots are counted on those intervals.  The leaves of a
factor F are coprime and multiply back to F, and F(0) != 0 (see
``ModulusBranch``), so every positive root tau of a simple factor is
exactly one pair +-t of real roots among its leaves' intervals, and a
negative tau gives no real t.  tau = 1 is never a root: a knot has
Delta(1) = +-1, which ``reps.alexander_polynomial`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .cohomology import KnotWalk, cohomology_dims, knot_rows, knot_walk
from .polynomials import (
    Poly,
    RootForm,
    isolate_real_roots,
    root_form,
    squarefree_decomposition,
)
from .quotient import MatrixOverField, ModulusBranch, SplitRecord
from .reps import alexander_polynomial
from .twobridge import KnotPresentation, TwoBridgeFraction, build_presentation


def analyze_roots(delta: Poly) -> Tuple[Tuple[Poly, int], ...]:
    """The square-free factors of an Alexander polynomial with their
    multiplicities.  The input must be normalized (nonzero constant
    term)."""
    if delta.is_zero:
        raise ValueError("cannot analyze the zero polynomial")
    if delta.constant == 0:
        raise ValueError("expected a normalized polynomial (nonzero constant)")
    return tuple(squarefree_decomposition(delta))


@dataclass(frozen=True)
class RootBranchReport:
    """Per-leaf record of the rigidity computation: dim H^1 of the knot
    group and of the 0-filled group; ``modulus`` and the split records
    of ``lineage`` are polynomials in t."""

    modulus: Poly
    lineage: Tuple
    xi_factor: Poly
    multiplicity: int
    real_root_intervals: Tuple[Tuple[Fraction, Fraction], ...]
    h1_knot: int
    h1_filled: int
    rigid: bool
    trace_checks: Tuple[bool, ...]


def meridian_trace_check(
    modulus: Union[Poly, RootForm], intervals: Sequence[Tuple[Fraction, Fraction]]
) -> Tuple[bool, ...]:
    """Certify tr^2 = xi + 2 + 1/xi > 4 with xi = t^2 for every real
    root t of the t-side ``modulus`` F(t^2), a Poly or its
    :class:`RootForm`, on each of its isolating ``intervals``, by exact
    integer signs and no refinement.

    The modulus must change sign across each interval (else
    ValueError).  Each of -1, 0 and 1 inside the interval is then
    evaluated exactly: a root there raises AssertionError (F would have
    a root at tau = 0 or 1, which :class:`ModulusBranch` refuses), and
    otherwise the side whose end values differ in sign, which holds the
    root, is kept.  The interval left holds no unit point inside, so
    its square misses 1 and xi != 1, which is tr^2 > 4 for real
    t != 0."""
    evaluate = (modulus if isinstance(modulus, RootForm) else root_form(modulus)).value
    verdicts = []
    for lo, hi in intervals:
        v_lo = evaluate(lo.numerator, lo.denominator)
        v_hi = evaluate(hi.numerator, hi.denominator)
        if not (v_lo < 0 < v_hi or v_hi < 0 < v_lo):
            raise ValueError(f"the modulus does not change sign across ({lo}, {hi})")
        for point in (-1, 0, 1):
            if lo < point < hi:
                value = evaluate(point, 1)
                if not value:
                    raise AssertionError(f"t = {point} is a root of the modulus")
                if (value < 0) == (v_lo < 0):
                    lo, v_lo = point, value
                else:
                    hi = point
                    break
        if hi <= 0:
            lo, hi = -hi, -lo
        # xi now lies in a positive interval missing 1, so (xi-1)^2 > 0.
        xi_lo, xi_hi = lo * lo, hi * hi
        verdicts.append(xi_hi <= 1 or xi_lo >= 1)
    if not all(verdicts):
        raise AssertionError("trace certification failed on an interval")
    return tuple(verdicts)


def _inflated(record: SplitRecord) -> SplitRecord:
    """A split of tau-side moduli as the split of their lifts to t."""
    return SplitRecord(
        record.parent.inflate(2), record.factor.inflate(2), record.cofactor.inflate(2)
    )


def check_rigidity(
    walk: KnotWalk,
    branch: ModulusBranch,
    xi_factor: Poly,
    multiplicity: int,
) -> List[RootBranchReport]:
    """Build the reducible non-abelian representation on the tau-side
    branch and compute the twisted cohomology of the knot group and of
    the 0-filled group, from the knot's walk (``cohomology.knot_walk``).
    ``xi_factor`` is the Alexander factor, of multiplicity
    ``multiplicity``, that the branch modulus divides; both go into the
    reports.  One report per leaf if dynamic evaluation splits, with the
    leaf modulus and lineage lifted to t.

    ``cohomology.knot_rows`` maps the walk into the ring and checks that
    the relator and the longitude map to the identity on the branch
    (else ValueError) and that every row kills the coboundaries.  The
    0-filled system is the knot rows plus the longitude's row 1 (see
    ``cohomology``): on each knot leaf its elimination resumes from the
    leaf's echelon rows, so only the one new row is reduced and
    tested."""
    knot, row = knot_rows(walk, branch)
    reports: List[RootBranchReport] = []
    for knot_leaf in cohomology_dims(knot):
        # Every leaf modulus divides the branch modulus, and reducing
        # modulo a factor is a ring homomorphism, so the branch's rows
        # reduced onto the leaf are the rows the leaf's own
        # representation would give: they pass the coboundary check
        # there, and its relator and longitude are the identity.
        filled = MatrixOverField(
            knot_leaf.echelon + (row,), knot_leaf.ring, knot_leaf.rank
        )
        for filled_leaf in cohomology_dims(filled):
            leaf = filled_leaf.branch
            modulus = leaf.modulus.inflate(2)
            # One even-lift form serves the isolation and the trace check.
            form = root_form(modulus)
            intervals = tuple(isolate_real_roots(form))
            reports.append(
                RootBranchReport(
                    modulus=modulus,
                    lineage=tuple([_inflated(record) for record in leaf.lineage]),
                    xi_factor=xi_factor.primitive(),
                    multiplicity=multiplicity,
                    real_root_intervals=intervals,
                    h1_knot=knot_leaf.dim,
                    h1_filled=filled_leaf.dim,
                    rigid=(filled_leaf.dim == 0),
                    trace_checks=meridian_trace_check(form, intervals),
                )
            )
    reports.sort(key=lambda r: (r.modulus.degree, r.modulus.coeffs))
    return reports


class Verdict(str, Enum):
    APPLIES = "APPLIES"
    INAPPLICABLE_NO_ROOT = "INAPPLICABLE_NO_ROOT"
    INAPPLICABLE_NOT_RIGID = "INAPPLICABLE_NOT_RIGID"


def verdict_from(qualifying_roots: int, any_qualifying_rigid: bool) -> Verdict:
    if qualifying_roots < 1:
        return Verdict.INAPPLICABLE_NO_ROOT
    return Verdict.APPLIES if any_qualifying_rigid else Verdict.INAPPLICABLE_NOT_RIGID


ASSUMPTIONS = (
    {
        "name": "exterior_irreducible",
        "holds": True,
        "note": "two-bridge knot exteriors are irreducible",
    },
)


@dataclass(frozen=True)
class Certificate:
    fraction: TwoBridgeFraction
    alexander: Poly
    qualifying_roots: int
    all_qualifying_rigid: bool
    verdict: Verdict
    assumptions: Tuple = ASSUMPTIONS


@dataclass(frozen=True)
class CertifyResult:
    fraction: TwoBridgeFraction
    presentation: KnotPresentation
    alexander: Poly
    factors: Tuple[Tuple[Poly, int], ...]
    reports: Tuple[RootBranchReport, ...]
    certificate: Certificate


def certify(fraction: TwoBridgeFraction) -> CertifyResult:
    """Run the full pipeline: Alexander polynomial by two independent
    routes, square-free split, and per-branch rigidity; the qualifying
    roots are counted on the leaves' real root intervals (see the
    module docstring).  The Alexander routes read the Riley exponents,
    so the one presentation built here is the report's, and its w is
    walked once for the rigidity checks of every factor."""
    delta = alexander_polynomial(fraction)
    factors = analyze_roots(delta)
    pres = build_presentation(fraction)
    walk = knot_walk(pres)

    reports: List[RootBranchReport] = []
    for factor, multiplicity in factors:
        reports.extend(
            check_rigidity(walk, ModulusBranch(factor), factor, multiplicity)
        )
    reports.sort(
        key=lambda r: (r.xi_factor.coeffs, r.modulus.degree, r.modulus.coeffs)
    )

    real_leaves = [
        r for r in reports if r.multiplicity == 1 and r.real_root_intervals
    ]
    qualifying = sum(len(r.real_root_intervals) for r in real_leaves) // 2
    any_rigid = any(r.rigid for r in real_leaves)
    all_rigid = bool(real_leaves) and all(r.rigid for r in real_leaves)
    certificate = Certificate(
        fraction=fraction,
        alexander=delta,
        qualifying_roots=qualifying,
        all_qualifying_rigid=all_rigid,
        verdict=verdict_from(qualifying, any_rigid),
    )
    return CertifyResult(
        fraction=fraction,
        presentation=pres,
        alexander=delta,
        factors=factors,
        reports=tuple(reports),
        certificate=certificate,
    )
