"""Acceptance suite: each test enforces one shipping criterion at its
stated tolerance (exact arithmetic throughout) and prints a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist.
"""

import json
import random
import time
from fractions import Fraction

from helpers import (
    CocycleValues,
    TBasisRep,
    adjoint,
    burde_de_rham_oracle,
    coboundary_values,
    eval_cocycle,
    eval_word_matrix,
    load_fixture,
    matrix_times,
    nullspace_oracle,
    numeric_roots,
    oracle_rows,
    random_unimodular_laurent,
    random_word,
    relator_block_rows,
    relator_system,
    system_numeric_rank_at,
)
from lodehn.certify import certify, check_rigidity
from lodehn.cli import build_report, main
from lodehn.cohomology import (
    family_cocycle_forms,
    knot_walk,
    vanishing_identity,
)
from lodehn.polynomials import LaurentPoly, Poly, squarefree_decomposition, sturm_count
from lodehn.quotient import LaurentRing, MatrixOverField, ModulusBranch, QuotientRing
from lodehn.reps import alexander_via_fox, alexander_via_rep
from lodehn.twobridge import (
    TwoBridgeFraction,
    build_presentation,
    family_fraction,
    family_word,
    parity_period_holds,
)


def _family_delta(j):
    return Poly([j, -(6 * j + 1), 10 * j + 3, -(6 * j + 1), j])


def _report(number, label, started, budget=None):
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} overran {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number}: PASS  {label}  ({elapsed:.1f}s)")


def test_criterion_1_alexander_closed_form_both_routes():
    started = time.monotonic()
    for j in range(1, 51):
        expected = _family_delta(j)
        fraction = family_fraction(j)
        assert alexander_via_rep(fraction) == expected
        assert alexander_via_fox(fraction) == expected
    _report(1, "closed-form Alexander polynomial, two routes, j=1..50",
            started, budget=30)


def test_criterion_2_root_counts():
    started = time.monotonic()
    for j in range(1, 51):
        delta = _family_delta(j)
        assert sturm_count(delta, (Fraction(0), Fraction(5))) == 4
        assert sturm_count(delta, (Fraction(5), None)) == 0
        decomposition = squarefree_decomposition(delta)
        assert all(mult == 1 for _, mult in decomposition)
        assert delta(1) == 1
    _report(2, "four simple positive real roots on (0,5), j=1..50",
            started, budget=10)


def test_criterion_3_closed_word_form():
    started = time.monotonic()
    for j in range(1, 201):
        assert family_word(j) == build_presentation(family_fraction(j)).w
        assert parity_period_holds(j)
    _report(3, "closed word form equals the floor-formula word, j=1..200",
            started, budget=10)


def test_criterion_4_cocycle_closed_forms():
    started = time.monotonic()
    for j in range(1, 21):
        family_cocycle_forms(j)  # raises on any component mismatch
    _report(4, "cocycle closed forms on w, v and geometric sums, j=1..20",
            started, budget=60)


def test_criterion_5_vanishing_identities():
    started = time.monotonic()
    for j in range(1, 21):
        identity = vanishing_identity(j)
        quartic = LaurentPoly.from_terms({4: 1, 2: -4, 0: 1})
        expected = (
            LaurentPoly.from_terms({4: 1, 0: -1})
            * (LaurentPoly.from_terms({4: 1}) + j * quartic * quartic)
        ).shift(-5)
        assert identity == expected
    _report(5, "longitude and relator identities, j=1..20", started)


def test_criterion_6_main_vanishing():
    started = time.monotonic()
    for j in range(1, 21):
        walk = knot_walk(build_presentation(family_fraction(j)))
        delta = _family_delta(j)
        for factor, mult in squarefree_decomposition(delta):
            branch = ModulusBranch(factor)
            reports = check_rigidity(walk, branch, factor, mult)
            assert reports
            for report in reports:
                assert (report.h1_knot, report.h1_filled) == (1, 0)
    _report(6, "H1(knot)=1 and H1(filled)=0 on every branch, j=1..20",
            started, budget=300)


def test_criterion_7_certificates_end_to_end(tmp_path):
    started = time.monotonic()
    for j in range(1, 21):
        out = tmp_path / f"family_{j}.json"
        code = main(["certify", "--family-j", str(j), "--json", str(out),
                     "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["certificate"]["verdict"] == "APPLIES"
    assert main(["certify", "--pq", "3/1", "--quiet"]) == 1
    trefoil = certify(TwoBridgeFraction(3, 1))
    assert trefoil.certificate.verdict.value == "INAPPLICABLE_NO_ROOT"
    assert main(["certify", "--pq", "4/1", "--quiet"]) == 2
    _report(7, "CLI certificates: family APPLIES, trefoil no-root, link rejected",
            started)


def test_criterion_8_property_suites():
    started = time.monotonic()
    rng = random.Random(20240801)

    # adjoint multiplicativity on 100 random unimodular pairs
    for _ in range(100):
        a = random_unimodular_laurent(rng)
        b = random_unimodular_laurent(rng)
        assert adjoint(a @ b) == adjoint(a) @ adjoint(b)

    # cocycle law on 100 random word pairs
    rep = TBasisRep(LaurentRing())
    checked = 0
    while checked < 100:
        a, b = random_word(rng, 8), random_word(rng, 8)
        if len(a * b) != len(a) + len(b):
            continue
        checked += 1
        z = CocycleValues(
            tuple(LaurentPoly.from_terms({rng.randint(-1, 1): rng.randint(-2, 2)})
                  for _ in range(3)),
            tuple(LaurentPoly.from_terms({rng.randint(-1, 1): rng.randint(-2, 2)})
                  for _ in range(3)),
        )
        ad_a = adjoint(eval_word_matrix(a, rep))
        step = ad_a.apply(eval_cocycle(b, z, rep))
        expected = tuple(eval_cocycle(a, z, rep)[i] + step[i] for i in range(3))
        assert eval_cocycle(a * b, z, rep) == expected

    # coboundaries lie in every constructed cocycle space, and the exact
    # ranks of the three-column systems agree with high-precision
    # floating elimination of the six-column block rows at the isolated
    # roots, for K1 and K2
    for j in (1, 2):
        fraction = family_fraction(j)
        pres = build_presentation(fraction)
        branch = ModulusBranch(_family_delta(j).monic())
        branch_rep = burde_de_rham_oracle(branch, pres.relator)
        for relators in ([pres.relator], [pres.relator, pres.longitude]):
            block_rows = relator_block_rows(relators, branch_rep)
            for k in range(3):
                unit = [1 if i == k else 0 for i in range(3)]
                cb = coboundary_values(unit, branch_rep)
                image = matrix_times(block_rows, cb.z_x + cb.z_y)
                assert all(entry.is_zero for entry in image)
            system = relator_system(relators, branch_rep)
            exact_ranks = {res.rank for res in system.nullspace()}
            assert len(exact_ranks) == 1
            exact_rank = exact_ranks.pop()
            six = MatrixOverField(block_rows, branch_rep.ring)
            for root in numeric_roots(branch.modulus):
                assert system_numeric_rank_at(six, root) == exact_rank

    # reciprocal symmetry of every computed Alexander polynomial
    fractions = [family_fraction(j) for j in range(1, 6)]
    fractions += [TwoBridgeFraction(5, 2), TwoBridgeFraction(7, 3),
                  TwoBridgeFraction(9, 1), TwoBridgeFraction(13, 5)]
    for fraction in fractions:
        delta = alexander_via_rep(fraction)
        assert delta.coeffs == tuple(reversed(delta.coeffs))

    # branch conservation under forced splits, with kernel certificates
    modulus = Poly([1])
    for root in (2, 3, 4, 7):
        modulus = modulus * Poly([-root, 1])
    branch = ModulusBranch(modulus)
    t = branch.t()
    rows = [[t - 3, branch.element(0)], [branch.element(0), (t - 2) * (t - 7)]]
    results = MatrixOverField(rows, QuotientRing(branch)).nullspace()
    leaves = nullspace_oracle(rows, branch)
    assert [(leaf.branch, leaf.rank) for leaf in leaves] == [
        (res.branch, res.rank) for res in results
    ]
    product = Poly([1])
    for leaf in leaves:
        product = product * leaf.branch.modulus
        assert len(leaf.basis) == leaf.dim
        for vec in leaf.basis:
            image = matrix_times(oracle_rows(rows, leaf.branch), vec)
            assert all(v == 0 for v in image)
    assert product == modulus
    assert len(results) == 3

    _report(8, "property suites: adjoint, cocycle law, B1 in Z1, "
               "reciprocity, splitting, float-rank agreement", started)


def test_criterion_9_cross_knot_oracles():
    started = time.monotonic()
    fig8 = TwoBridgeFraction(5, 2)
    trefoil = TwoBridgeFraction(3, 1)
    assert alexander_via_rep(fig8) == Poly([1, -3, 1])
    assert alexander_via_fox(fig8) == Poly([1, -3, 1])
    assert alexander_via_rep(trefoil) == Poly([1, -1, 1])
    assert alexander_via_fox(trefoil) == Poly([1, -1, 1])

    fixture = load_fixture("figure_eight_dims.json")
    delta = Poly(fixture["alexander"])
    branch = ModulusBranch(delta)
    reports = check_rigidity(knot_walk(build_presentation(fig8)), branch, delta, 1)
    branches = build_report(certify(fig8), {})["branches"]
    assert reports and len(branches) == len(reports)
    for report, written in zip(reports, branches):
        for expected in fixture["roots"].values():
            assert (report.h1_knot, report.h1_filled) == (
                expected["knot"]["h1"], expected["filled"]["h1"]
            )
            assert written["dims_knot"] == expected["knot"]
            assert written["dims_filled"] == expected["filled"]
    _report(9, "figure-eight and trefoil against independent oracles", started)
