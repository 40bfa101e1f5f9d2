"""Command-line interface and report serialization.

Exit codes: 0 when the certificate verdict is APPLIES (or a
non-certifying command succeeds), 1 when the criterion is inapplicable
or a self-check fails, 2 on invalid input or an internal failure
(a failed cross-check or assertion, an unwritable report path, or any
other exception, whose traceback is printed before the error line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .certify import CertifyResult, Verdict, certify, check_rigidity
from .cohomology import (
    ClosedFormMismatch,
    family_cocycle_forms,
    knot_walk,
    vanishing_identity,
)
from .polynomials import (
    Poly,
    isolate_real_roots,
    primitive_ints,
    refine_isolating_interval,
    root_form,
    squarefree_decomposition,
    sturm_count,
)
from .quotient import ModulusBranch
from .reps import (
    AlexanderMismatch,
    alexander_polynomial,
    alexander_via_fox,
    alexander_via_rep,
)
from .twobridge import (
    TwoBridgeFraction,
    build_presentation,
    cf_to_fraction,
    family_fraction,
    family_v,
    family_word,
    parity_period_holds,
)

SCHEMA_VERSION = "1"


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _poly_fracs(p: Poly) -> List[str]:
    return [_frac_str(c) for c in p.coeffs]


def _interval_json(interval: Tuple[Fraction, Fraction]) -> List[str]:
    lo, hi = interval
    return [_frac_str(lo), _frac_str(hi)]


def _dims_json(h1: int) -> Dict[str, int]:
    """A schema-1 ``dims_*`` record.  z1 = h1 + 3, b1 = 3 and h0 = 0 on
    every leaf, since tau and tau - 1 are units there (see
    ``cohomology``)."""
    return {"z1": h1 + 3, "b1": 3, "h0": 0, "h1": h1}


def build_report(
    result: CertifyResult, input_echo: Dict, timings: Optional[Dict] = None
) -> Dict:
    pres = result.presentation
    branches = []
    for report in result.reports:
        branches.append({
            "modulus": _poly_fracs(report.modulus),
            "xi_factor": primitive_ints(report.xi_factor),
            "multiplicity": report.multiplicity,
            "real_root_intervals": [
                _interval_json(iv) for iv in report.real_root_intervals
            ],
            # Schema 1 field; ModulusBranch refuses tau = 1, that is t = +-1.
            "contains_pm1": False,
            "dims_knot": _dims_json(report.h1_knot),
            "dims_filled": _dims_json(report.h1_filled),
            "rigid": report.rigid,
            "trace_checks": list(report.trace_checks),
            "lineage": [
                {
                    "parent": _poly_fracs(rec.parent),
                    "factor": _poly_fracs(rec.factor),
                    "cofactor": _poly_fracs(rec.cofactor),
                }
                for rec in report.lineage
            ],
        })
    certificate = {
        "fraction": str(result.fraction),
        "alexander": primitive_ints(result.alexander),
        "qualifying_roots": result.certificate.qualifying_roots,
        "all_qualifying_rigid": result.certificate.all_qualifying_rigid,
        "verdict": result.certificate.verdict.value,
        "assumptions": [dict(a) for a in result.certificate.assumptions],
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "input": input_echo,
        "presentation": {
            "w": str(pres.w),
            "v": str(pres.v),
            "relator": str(pres.relator),
            "longitude": str(pres.longitude),
            "meridian": str(pres.meridian),
        },
        "alexander": primitive_ints(result.alexander),
        "factors": [
            {"coefficients": primitive_ints(factor), "multiplicity": mult}
            for factor, mult in result.factors
        ],
        "branches": branches,
        "certificate": certificate,
        "timings": timings or {},
    }


def canonical_report(report: Dict) -> Dict:
    """The report with volatile fields (timings) dropped, for equality
    checks between runs."""
    return {k: v for k, v in report.items() if k != "timings"}


def decimal_string(value: Fraction, digits: int) -> str:
    """``value`` to ``digits`` decimals, rounded half to even."""
    return _ratio_decimal(value.numerator, value.denominator, digits)


def _ratio_decimal(num: int, den: int, digits: int) -> str:
    """num/den, den > 0, to ``digits`` decimals, rounded half to even as
    ``round`` rounds a Fraction, from integers alone."""
    scaled, twice_rest = divmod(num * 10**digits, den)
    twice_rest *= 2
    if twice_rest > den or (twice_rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def _parse_pq(text: str) -> TwoBridgeFraction:
    """The knot p/q with q reduced mod p: q + p names the same knot,
    and -q the mirror image, which is p/(p - q)."""
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"expected p/q, got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"expected integers in p/q, got {text!r}") from None
    if p > 0 and gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got {text!r}")
    return TwoBridgeFraction(p, q % p if p > 0 else q)


def _parse_cf(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _resolve_fraction(args) -> Tuple[TwoBridgeFraction, Dict]:
    if args.cf is not None:
        terms = _parse_cf(args.cf)
        fraction = cf_to_fraction(terms)
        echo = {"mode": "cf", "value": terms, "fraction": str(fraction)}
    elif args.pq is not None:
        fraction = _parse_pq(args.pq)
        echo = {"mode": "pq", "value": args.pq, "fraction": str(fraction)}
    else:
        j = args.family_j
        fraction = family_fraction(j)
        echo = {"mode": "family_j", "value": j, "fraction": str(fraction)}
    return fraction, echo


def _add_selector(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--cf", help="continued fraction, comma-separated integers")
    group.add_argument("--pq", help="two-bridge fraction as p/q")
    group.add_argument("--family-j", type=int,
                       help="index j of the [1,1,2,2,2j] family")


def _check_json_path(path: str) -> None:
    """Reject a report path that no write could succeed on, before any
    computation."""
    if not path:
        raise ValueError("--json: empty path")
    if os.path.isdir(path) or not os.path.basename(path):
        raise ValueError(f"--json: {path!r} names a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"--json: directory {directory!r} does not exist")


def _write_json(path: str, report: Dict) -> None:
    """Write the report to a temporary file next to ``path`` and rename
    it onto ``path``, so a failed write leaves no partial file.  The
    report is encoded before the file is opened, so a report that
    cannot be encoded creates no file."""
    directory, name = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    text = json.dumps(report, indent=2) + "\n"
    handle = open(temporary, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def cmd_certify(args) -> int:
    fraction, echo = _resolve_fraction(args)
    if args.json is not None:
        _check_json_path(args.json)
    started = time.monotonic()
    result = certify(fraction)
    elapsed = time.monotonic() - started
    report = build_report(result, echo, {"total_seconds": elapsed})
    if args.json is not None:
        _write_json(args.json, report)
    if not args.quiet:
        _print_certify_summary(result)
    return 0 if result.certificate.verdict is Verdict.APPLIES else 1


def _print_certify_summary(result: CertifyResult) -> None:
    cert = result.certificate
    print(f"knot {result.fraction}")
    print(f"alexander: {' '.join(str(c) for c in primitive_ints(result.alexander))}")
    print(
        f"simple positive real roots != 1: {cert.qualifying_roots}"
        f"  (value at 1: {result.alexander(1)})"
    )
    for report in result.reports:
        if report.modulus.is_integral():
            mod = " ".join(str(int(c)) for c in report.modulus.coeffs)
        else:
            mod = " ".join(_poly_fracs(report.modulus))
        print(
            f"branch [{mod}]: H1(knot) = {report.h1_knot}, "
            f"H1(filled) = {report.h1_filled}, "
            f"{'rigid' if report.rigid else 'not rigid'}, "
            f"real roots: {len(report.real_root_intervals)}"
        )
    print(f"verdict: {cert.verdict.value}")


def cmd_alexander(args) -> int:
    if args.digits < 0:
        raise ValueError(f"--digits must be >= 0, got {args.digits}")
    fraction, _ = _resolve_fraction(args)
    delta = alexander_polynomial(fraction)
    print(" ".join(str(c) for c in primitive_ints(delta)))
    if args.roots:
        for line in _root_lines(delta, args.digits):
            print(line)
    return 0


def _root_lines(delta: Poly, digits: int) -> List[str]:
    """One line per real root of ``delta``.  Its root form tells whether
    ``delta`` is square-free (the chain of its core ends in a constant);
    only when it is not does Yun's split run, with one form per factor.
    Each form serves the isolation and the refinement of its roots.  A
    line reads the refined interval and the decimal of its midpoint off
    the endpoints' numerators and denominators, with no Fraction
    arithmetic."""
    form = root_form(delta)
    if form.squarefree:
        factors = [(form, 1)]
    else:
        factors = [
            (root_form(factor), multiplicity)
            for factor, multiplicity in squarefree_decomposition(delta)
        ]
    width = Fraction(1, 10 ** (digits + 2))
    entries = []
    for factor, multiplicity in factors:
        for lo, hi in isolate_real_roots(factor):
            lo, hi = refine_isolating_interval(factor, lo, hi, width)
            entries.append((lo, hi, multiplicity))
    entries.sort(key=lambda e: e[0])
    lines = []
    for lo, hi, multiplicity in entries:
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        kind = "positive" if ln >= 0 else "negative"
        lines.append(
            f"root in ({ln}/{ld}, {hn}/{hd})"
            f" ~ {_ratio_decimal(ln * hd + hn * ld, 2 * ld * hd, digits)}"
            f"  {kind}, multiplicity {multiplicity}"
        )
    return lines


def _expected_family_alexander(j: int) -> Poly:
    return Poly([j, -(6 * j + 1), 10 * j + 3, -(6 * j + 1), j])


def _check_words(j: int) -> bool:
    pres = build_presentation(family_fraction(j))
    return (
        family_word(j) == pres.w
        and family_v(j) == pres.v
        and pres.v == pres.w.spelled_backwards()
        and pres.v == pres.w.generators_exchanged()
        and parity_period_holds(j)
        and pres.longitude.exponent_sum("x") == 0
        and pres.longitude.exponent_sum("y") == 0
    )


def _check_alexander(j: int) -> bool:
    expected = _expected_family_alexander(j)
    fraction = family_fraction(j)
    return (
        alexander_via_rep(fraction) == expected
        and alexander_via_fox(fraction) == expected
    )


def _check_roots(j: int) -> bool:
    delta = _expected_family_alexander(j)
    decomposition = squarefree_decomposition(delta)
    return (
        sturm_count(delta, (Fraction(0), Fraction(5))) == 4
        and sturm_count(delta, (Fraction(5), None)) == 0
        and all(mult == 1 for _, mult in decomposition)
        and sum(f.degree for f, _ in decomposition) == 4
        and delta(1) == 1
    )


def _check_cocycle_forms(j: int) -> bool:
    try:
        family_cocycle_forms(j)
        return True
    except ClosedFormMismatch:
        return False


def _check_vanishing_identity(j: int) -> bool:
    try:
        vanishing_identity(j)
        return True
    except ClosedFormMismatch:
        return False


def _check_cohomology(j: int) -> bool:
    walk = knot_walk(build_presentation(family_fraction(j)))
    delta = _expected_family_alexander(j)
    for factor, multiplicity in squarefree_decomposition(delta):
        reports = check_rigidity(walk, ModulusBranch(factor), factor, multiplicity)
        for report in reports:
            if (report.h1_knot, report.h1_filled) != (1, 0):
                return False
    return True


VERIFY_ITEMS = (
    ("closed word form vs floor formula, with period-24 parity", _check_words),
    ("alexander closed form by both routes", _check_alexander),
    ("four simple positive real roots, value 1 at tau=1", _check_roots),
    ("cocycle closed forms on w, v and the geometric sums", _check_cocycle_forms),
    ("longitude and relator vanishing identities", _check_vanishing_identity),
    ("H1(knot) one-dimensional and H1(filled) zero on all branches",
     _check_cohomology),
)


def cmd_verify_family(args) -> int:
    jmax = args.j_max
    if jmax < 1:
        raise ValueError(f"--j-max must be >= 1, got {jmax}")
    all_ok = True
    for label, checker in VERIFY_ITEMS:
        ok = True
        for j in range(1, jmax + 1):
            if not checker(j):
                ok = False
                break
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {label} (j=1..{jmax})")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lodehn",
        description=(
            "Exact certificates for intervals of left-orderable Dehn "
            "fillings on two-bridge knot exteriors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run the full certificate pipeline")
    _add_selector(p_cert)
    p_cert.add_argument("--json", help="write the JSON report to this path")
    p_cert.add_argument("--quiet", action="store_true",
                        help="suppress the stdout summary")
    p_cert.set_defaults(func=cmd_certify)

    p_alex = sub.add_parser("alexander", help="print the Alexander polynomial")
    _add_selector(p_alex)
    p_alex.add_argument("--roots", action="store_true",
                        help="also print isolated real roots")
    p_alex.add_argument("--digits", type=int, default=6,
                        help="decimal digits for root approximations")
    p_alex.set_defaults(func=cmd_alexander)

    p_verify = sub.add_parser(
        "verify-family",
        help="re-derive the closed-form identities of the [1,1,2,2,2j] family",
    )
    p_verify.add_argument("--j-max", type=int, default=10,
                          help="largest family index to check")
    p_verify.set_defaults(func=cmd_verify_family)
    return parser


# No parse changes the parser, so one serves every call in the process;
# a parser built per call is left to the cycle collector as garbage.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError, OSError, AssertionError, AlexanderMismatch, ClosedFormMismatch
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        # Exit 1 is a verdict, so no crash may leave through it.
        traceback.print_exc()
        print(f"error: internal failure ({type(err).__name__}): {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
