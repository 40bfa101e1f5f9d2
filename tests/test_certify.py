import json
from fractions import Fraction

import pytest

from helpers import (
    burde_de_rham_oracle,
    load_fixture,
    nullspace_oracle,
    six_row_filled_leaves,
)
from lodehn.certify import (
    Verdict,
    _inflated,
    analyze_roots,
    certify,
    check_rigidity,
    meridian_trace_check,
    verdict_from,
)
from lodehn.cli import build_report
from lodehn.cohomology import cohomology_dims, knot_rows, knot_walk
from lodehn.polynomials import (
    Poly,
    isolate_real_roots,
    squarefree_decomposition,
    sturm_count,
)
from lodehn.quotient import MatrixOverField, ModulusBranch, QuotientRing
from lodehn.reps import alexander_via_rep
from lodehn.twobridge import TwoBridgeFraction, build_presentation, family_fraction

DELTA1 = Poly([1, -7, 13, -7, 1])


def test_analyze_roots_k1():
    assert analyze_roots(DELTA1) == ((DELTA1, 1),)
    result = certify(TwoBridgeFraction(29, 17))
    assert result.factors == ((DELTA1, 1),)
    assert result.certificate.qualifying_roots == 4


def test_analyze_roots_trefoil():
    result = certify(TwoBridgeFraction(3, 1))
    assert result.factors == ((Poly([1, -1, 1]), 1),)
    assert result.certificate.qualifying_roots == 0


def test_analyze_roots_with_multiplicities():
    p = Poly([-2, 1]) ** 2 * Poly([-3, 1])
    assert sorted(m for _, m in analyze_roots(p)) == [1, 2]
    # Delta(81/32) = (2 tau^2 - 5 tau + 2)^2: the squared factor has
    # four real roots t, which do not qualify.
    result = certify(TwoBridgeFraction(81, 32))
    assert result.factors == ((Poly([1, Fraction(-5, 2), 1]), 2),)
    assert [len(r.real_root_intervals) for r in result.reports] == [4]
    assert result.certificate.qualifying_roots == 0


def test_analyze_roots_rejects_zero_constant():
    with pytest.raises(ValueError):
        analyze_roots(Poly([0, 1]))


ORACLE_EXTRA = ("49/17", "81/32", "147/53", "115/42", "195/82", "205/78")


def test_qualifying_roots_match_the_sturm_count_of_the_simple_factors():
    # certify counts the qualifying roots on its leaves' isolating
    # intervals; the Sturm count of each simple factor on (0, oo) is the
    # independent count.  A knot has Delta(1) = +-1, so no root is 1.
    fractions = [
        row["fraction"]
        for name in ("census_p23.json", "long_words.json")
        for row in load_fixture(name)
    ] + list(ORACLE_EXTRA)
    for text in fractions:
        p, q = (int(part) for part in text.split("/"))
        result = certify(TwoBridgeFraction(p, q))
        delta = result.alexander
        assert abs(delta(1)) == 1, text
        expected = sum(
            sturm_count(factor, (Fraction(0), None))
            for factor, multiplicity in squarefree_decomposition(delta)
            if multiplicity == 1
        )
        qualifying = result.certificate.qualifying_roots
        assert qualifying == expected, text
        assert (qualifying > 0) == any(
            r.multiplicity == 1 and r.real_root_intervals for r in result.reports
        ), text


def test_check_rigidity_k1():
    reports = check_rigidity(
        knot_walk(build_presentation(TwoBridgeFraction(29, 17))),
        ModulusBranch(DELTA1),
        DELTA1,
        1,
    )
    assert len(reports) >= 1
    for report in reports:
        assert (report.h1_knot, report.h1_filled) == (1, 0)
        assert report.rigid
        assert all(report.trace_checks)


@pytest.mark.parametrize("j", [2, 3])
def test_check_rigidity_family(j):
    fraction = family_fraction(j)
    delta = Poly([j, -(6 * j + 1), 10 * j + 3, -(6 * j + 1), j])
    branch = ModulusBranch(delta)
    for report in check_rigidity(knot_walk(build_presentation(fraction)), branch, delta, 1):
        assert report.rigid
        assert report.h1_knot == 1


def test_longitude_row_one_fills_like_the_six_row_system():
    # check_rigidity fills with the longitude's row 1 alone, resumed
    # from each knot leaf's echelon rows.  The six-row system, rebuilt
    # from scratch on each knot leaf, gives the same leaf moduli, split
    # lineages and H^1 on every factor of the census and long-word
    # fixtures, on 9/1 (Phi6 * Phi18 in tau), on 147/53 (a squared
    # factor) and on the three knot classes whose knot rows split; and
    # on the product of 147/53's two factors, where the filled step
    # splits and resumes on each part.
    fractions = [
        row["fraction"]
        for name in ("census_p23.json", "long_words.json")
        for row in load_fixture(name)
    ] + ["9/1", "115/42", "195/82", "205/78", "147/53"]
    cases = []
    for text in fractions:
        fraction = TwoBridgeFraction(*(int(part) for part in text.split("/")))
        pres = build_presentation(fraction)
        factors = squarefree_decomposition(alexander_via_rep(fraction))
        cases += [(pres, factor, multiplicity) for factor, multiplicity in factors]
    product = factors[0][0].monic() * factors[1][0].monic()
    cases.append((pres, product, 1))
    leaves = 0
    for pres, factor, multiplicity in cases:
        branch = ModulusBranch(factor)
        reports = check_rigidity(knot_walk(pres), branch, factor, multiplicity)
        rep = burde_de_rham_oracle(branch, pres.relator)
        assert [(r.modulus, r.lineage, r.h1_filled) for r in reports] == [
            (modulus.inflate(2), tuple(_inflated(rec) for rec in lineage), h1)
            for modulus, lineage, h1 in six_row_filled_leaves(pres, rep)
        ]
        leaves += len(reports)
    assert (len(cases), leaves) == (49, 53)


# Phi12(t) = Phi6(tau) and Phi36(t) = Phi18(tau), tau = t^2.
PHI6 = Poly([1, -1, 1])
PHI18 = Poly([1, 0, 0, -1, 0, 0, 1])


def test_relator_is_identity_on_a_proper_factor_of_the_branch():
    # check_rigidity builds the relator and longitude rows once on the
    # branch and reduces them onto each leaf.  Every leaf modulus divides
    # the branch modulus and reduction is a ring homomorphism, so the
    # reduced rows are the rows of the leaf's own representation (whose
    # relator residue knot_rows checks again), and the branch
    # representation gives the leaf's cohomology.
    cases = (
        # one Alexander factor, Phi6 * Phi18
        (TwoBridgeFraction(9, 1), (PHI6, PHI18), False),
        # two Alexander factors; only the filled system splits the branch
        (TwoBridgeFraction(147, 53), (PHI6, Poly([1, Fraction(-3, 2), 1])), True),
    )
    for fraction, factors, filled_splits in cases:
        walk = knot_walk(build_presentation(fraction))
        modulus = factors[0] * factors[1]
        product = Poly([1])
        for factor, _ in squarefree_decomposition(alexander_via_rep(fraction)):
            product = product * factor.monic()
        assert product == modulus
        knot, row = knot_rows(walk, ModulusBranch(modulus))
        filled = MatrixOverField(knot.entries + (row,), knot.ring)
        assert len(knot.nullspace()) == 1
        assert (len(filled.nullspace()) > 1) == filled_splits
        for factor in factors:
            ring = QuotientRing(ModulusBranch(factor))
            own_knot, own_row = knot_rows(walk, ring.branch)
            assert MatrixOverField(knot.entries, ring).entries == own_knot.entries
            assert MatrixOverField([row], ring).entries == (own_row,)
            for rows, own_rows in (
                (knot.entries, own_knot.entries),
                (filled.entries, own_knot.entries + (own_row,)),
            ):
                reduced = cohomology_dims(MatrixOverField(rows, ring))
                own = cohomology_dims(MatrixOverField(own_rows, ring))
                assert [(r.branch, r.dim) for r in reduced] == [
                    (r.branch, r.dim) for r in own
                ]
                # The oracle's kernel bases agree as well, one vector
                # per dimension of H^1.
                reduced_bases = nullspace_oracle(rows, ring.branch)
                assert reduced_bases == nullspace_oracle(own_rows, ring.branch)
                assert [(b.branch, len(b.basis)) for b in reduced_bases] == [
                    (r.branch, r.dim) for r in reduced
                ]


def test_figure_eight_matches_independent_oracle():
    fixture = load_fixture("figure_eight_dims.json")
    fraction = TwoBridgeFraction(5, 2)
    delta = Poly(fixture["alexander"])
    assert certify(fraction).alexander == delta
    branch = ModulusBranch(delta)
    reports = check_rigidity(knot_walk(build_presentation(fraction)), branch, delta, 1)
    # the oracle dims agree at every root, so each leaf (whatever the
    # split pattern) must carry exactly those dimensions, and so must
    # each branch of the JSON report
    branches = build_report(certify(fraction), {})["branches"]
    assert reports and len(branches) == len(reports)
    for report, written in zip(reports, branches):
        for expected in fixture["roots"].values():
            assert report.h1_knot == expected["knot"]["h1"]
            assert report.h1_filled == expected["filled"]["h1"]
            assert written["dims_knot"] == expected["knot"]
            assert written["dims_filled"] == expected["filled"]


def test_meridian_trace_check_k1():
    modulus = DELTA1.monic().inflate(2)
    intervals = tuple(isolate_real_roots(modulus))
    assert meridian_trace_check(modulus, intervals) == (True,) * 8


def test_meridian_trace_check_figure_eight():
    modulus = Poly([1, 0, -3, 0, 1])
    intervals = tuple(isolate_real_roots(modulus))
    assert meridian_trace_check(modulus, intervals) == (True,) * 4


def test_meridian_trace_check_rejects_unit_roots():
    # Its refinement would not end on a root t at -1, 0 or 1 of F(t^2),
    # which is a root of F at tau = 0 or 1; a branch with one cannot be
    # built.
    for modulus in (Poly([-1, 0, 1]), Poly([0, 1, 1])):
        with pytest.raises(ValueError, match="must be units"):
            ModulusBranch(modulus)


def test_certify_k1():
    result = certify(TwoBridgeFraction(29, 17))
    cert = result.certificate
    assert cert.verdict is Verdict.APPLIES
    assert cert.qualifying_roots == 4
    assert cert.all_qualifying_rigid
    assert cert.assumptions[0]["name"] == "exterior_irreducible"
    assert cert.assumptions[0]["holds"] is True


def test_certify_trefoil_no_root():
    result = certify(TwoBridgeFraction(3, 1))
    assert result.certificate.verdict is Verdict.INAPPLICABLE_NO_ROOT
    assert result.certificate.qualifying_roots == 0


def test_invalid_even_fraction_rejected():
    with pytest.raises(ValueError):
        TwoBridgeFraction(4, 1)


def test_certify_figure_eight():
    result = certify(TwoBridgeFraction(5, 2))
    assert result.certificate.verdict is Verdict.APPLIES
    assert result.certificate.qualifying_roots == 2


def test_certify_torus_knot():
    # (9, 1) is the (2,9) torus knot: all roots on the unit circle
    result = certify(TwoBridgeFraction(9, 1))
    assert result.certificate.verdict is Verdict.INAPPLICABLE_NO_ROOT
    product = Poly([1])
    for factor, mult in result.factors:
        product = product * factor**mult
    assert product == result.alexander.monic()


def test_certify_with_repeated_alexander_factor():
    # Delta(49/17) = (2 tau^2 - 3 tau + 2)^2
    result = certify(TwoBridgeFraction(49, 17))
    assert result.alexander == Poly([4, -12, 17, -12, 4])
    assert [mult for _, mult in result.factors] == [2]
    assert result.certificate.qualifying_roots == 0
    assert result.certificate.verdict is Verdict.INAPPLICABLE_NO_ROOT
    assert all(report.multiplicity == 2 for report in result.reports)
    assert result.reports  # rigidity is still computed and reported


def test_branch_completeness_rebuilds_alexander():
    for fraction in (TwoBridgeFraction(29, 17), TwoBridgeFraction(9, 1)):
        result = certify(fraction)
        product = Poly([1])
        for factor, mult in result.factors:
            product = product * factor**mult
        assert product == result.alexander.monic()
        for report in result.reports:
            leaf_product = report.modulus
            # every leaf modulus divides its factor lifted to t^2
            lifted = report.xi_factor.monic().inflate(2)
            assert (lifted % leaf_product).is_zero


def test_certify_mixed_multiplicity_knot():
    # Delta(147/53) = (tau^2 - tau + 1)(2 tau^2 - 3 tau + 2)^2: two
    # branches, no real roots, and the repeated factor is not rigid
    result = certify(TwoBridgeFraction(147, 53))
    assert result.alexander == Poly([4, -16, 33, -41, 33, -16, 4])
    assert result.certificate.verdict is Verdict.INAPPLICABLE_NO_ROOT
    by_mult = {r.multiplicity: r for r in result.reports}
    assert set(by_mult) == {1, 2}
    assert by_mult[1].rigid and by_mult[1].h1_filled == 0
    assert not by_mult[2].rigid and by_mult[2].h1_filled == 1
    assert all(r.h1_knot == 1 for r in result.reports)

    # back the non-rigid dims with the floating oracle at every root
    from helpers import numeric_roots, relator_system, system_numeric_rank_at

    pres = build_presentation(TwoBridgeFraction(147, 53))
    for report in result.reports:
        # the report's modulus is F(t^2); the systems live over Q[tau]/(F)
        branch = ModulusBranch(Poly(report.modulus.coeffs[0::2]))
        assert branch.modulus.inflate(2) == report.modulus
        rep = burde_de_rham_oracle(branch, pres.relator)
        for relators, h1 in (
            ([pres.relator], report.h1_knot),
            ([pres.relator, pres.longitude], report.h1_filled),
        ):
            system = relator_system(relators, rep)
            exact_rank = 3 - h1
            for root in numeric_roots(branch.modulus):
                assert system_numeric_rank_at(system, root) == exact_rank


def test_verdict_assembly():
    assert verdict_from(0, False) is Verdict.INAPPLICABLE_NO_ROOT
    assert verdict_from(0, True) is Verdict.INAPPLICABLE_NO_ROOT
    assert verdict_from(2, False) is Verdict.INAPPLICABLE_NOT_RIGID
    assert verdict_from(2, True) is Verdict.APPLIES
    # adding non-qualifying roots never changes the verdict
    for qualifying in (1, 2, 3):
        assert verdict_from(qualifying, True) is verdict_from(qualifying + 1, True)


@pytest.mark.parametrize(
    "fraction",
    [TwoBridgeFraction(29, 17), TwoBridgeFraction(53, 31), TwoBridgeFraction(5, 2)],
)
def test_reciprocal_root_pairing(fraction):
    result = certify(fraction)
    delta = result.alexander
    inside = sturm_count(delta, (Fraction(0), Fraction(1)))
    outside = sturm_count(delta, (Fraction(1), None))
    assert inside == outside
    coeffs = result.alexander.coeffs
    assert coeffs == tuple(reversed(coeffs))


def test_certify_deterministic():
    from lodehn.cli import build_report, canonical_report

    first = certify(TwoBridgeFraction(29, 17))
    second = certify(TwoBridgeFraction(29, 17))
    echo = {"mode": "pq", "value": "29/17", "fraction": "29/17"}
    a = json.dumps(canonical_report(build_report(first, echo)), sort_keys=False)
    b = json.dumps(canonical_report(build_report(second, echo)), sort_keys=False)
    assert a == b
