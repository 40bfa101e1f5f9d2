import itertools
import random

import pytest

from helpers import (
    CocycleValues,
    L,
    TBasisRep,
    adjoint,
    burde_de_rham_oracle,
    census,
    coboundary_values,
    eval_cocycle,
    eval_word_matrix,
    geometric_sum_oracle,
    h0_oracle,
    generator_adjoints,
    image_terms,
    leaf_records,
    load_fixture,
    longitude_row,
    matrix_times,
    meridian_walk,
    normalized_representative,
    nullspace_oracle,
    poly_gcd,
    random_word,
    relator_block_rows,
    relator_system,
    row_terms,
    to_tau_basis,
    word_value_blocks_oracle,
)
from lodehn import cli, cohomology
from lodehn.cohomology import (
    ClosedFormMismatch,
    _block_terms,
    _geometric_sum,
    cohomology_dims,
    family_cocycle_forms,
    knot_rows,
    knot_walk,
    vanishing_identity,
    word_value_blocks,
)
from lodehn.polynomials import LaurentPoly, Poly, squarefree_decomposition
from lodehn.quotient import (
    AlgebraicElement,
    LaurentRing,
    MatrixOverField,
    ModulusBranch,
    QuotientRing,
    SplitRecord,
)
from lodehn.reps import (
    Mat3,
    MeridianRep,
    alexander_via_rep,
    f_upper_entry,
    tau_terms,
)
from lodehn.twobridge import (
    FAMILY_S,
    FAMILY_U,
    TwoBridgeFraction,
    build_presentation,
    family_fraction,
    family_v,
    family_word,
)
from lodehn.words import Word

DELTA1 = Poly([1, -7, 13, -7, 1])


def _laurent_rep():
    """The t-basis oracle representation over Q[t, t^-1]."""
    return TBasisRep(LaurentRing())


def _t_rep(rep):
    """The t-basis oracle representation on the lift F(t^2) of the
    modulus F of the tau-side ``rep``."""
    return TBasisRep(QuotientRing(ModulusBranch(rep.ring.branch.modulus.inflate(2))))


def _oracle_blocks(word, rep):
    """The step-by-step t-basis blocks of ``word`` on the lift of
    ``rep``'s branch, mapped into the basis (v+, t v0, v-) and into
    tau on ``rep.ring``."""
    mx, my = word_value_blocks_oracle(word, _t_rep(rep))
    return to_tau_basis(mx, rep.ring), to_tau_basis(my, rep.ring)


def _normal_values(rep, alpha_only=False):
    zero, one = rep.ring.zero, rep.ring.one
    z_alpha = CocycleValues((zero, one, zero), (zero, one, zero))
    z_beta = CocycleValues((zero, zero, one), (zero, zero, zero))
    return z_alpha, z_beta


def test_empty_word_evaluates_to_zero():
    rep = _laurent_rep()
    z = CocycleValues((rep.ring.one,) * 3, (rep.ring.one,) * 3)
    assert eval_cocycle(Word(), z, rep) == (0, 0, 0)


def test_commutator_word_value():
    rep = _laurent_rep()
    z_alpha, z_beta = _normal_values(rep)
    w = Word.parse("yx^-1y^-1x")
    assert eval_cocycle(w, z_alpha, rep) == (L({1: 2}), L({}), L({}))
    assert eval_cocycle(w, z_beta, rep) == (
        L({4: -1, 2: 3, 0: -1}),
        L({3: 1, 1: -2}),
        L({2: 1, 0: -1}),
    )


def test_reversed_commutator_word_value():
    rep = _laurent_rep()
    z_alpha, z_beta = _normal_values(rep)
    w = Word.parse("xy^-1x^-1y")
    # beta parts as printed; the alpha part is fixed by the cocycle law
    # (cross-checked against the closed forms and the geometric sums)
    assert eval_cocycle(w, z_beta, rep) == (
        L({4: 1}),
        L({3: 1}),
        L({2: -1, 0: 1}),
    )
    assert eval_cocycle(w, z_alpha, rep) == (L({1: -2}), L({}), L({}))


def test_u_and_s_values():
    rep = _laurent_rep()
    z_alpha, z_beta = _normal_values(rep)
    eu_a = eval_cocycle(FAMILY_U, z_alpha, rep)
    eu_b = eval_cocycle(FAMILY_U, z_beta, rep)
    assert eu_a[0] == L({3: -4, 1: 10, -3: -2})
    assert (eu_a[1], eu_a[2]) == (L({}), L({}))
    assert eu_b[1] == L({7: 1, 5: -9, 3: 27, 1: -30, -1: 10, -3: -1})
    assert eu_b[2] == L({4: -1, 2: 5, 0: -5, -2: 1})
    es_a = eval_cocycle(FAMILY_S, z_alpha, rep)
    es_b = eval_cocycle(FAMILY_S, z_beta, rep)
    assert es_a[0] == L({3: 4, 1: -10, -3: 2})
    assert es_b[1] == L({7: 1, 5: -9, 3: 25, 1: -22, -1: 8, -3: -1})
    assert es_b[2] == L({4: 1, 2: -5, 0: 5, -2: -1})


def test_cocycle_law_on_random_words():
    rng = random.Random(99)
    rep = _laurent_rep()
    for _ in range(100):
        a, b = random_word(rng, 10), random_word(rng, 10)
        if len(a * b) != len(a) + len(b):
            continue  # concatenation must not cancel for spelling equality
        z = CocycleValues(
            tuple(L({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(3)),
            tuple(L({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(3)),
        )
        lhs = eval_cocycle(a * b, z, rep)
        ad_a = adjoint(eval_word_matrix(a, rep))
        step = ad_a.apply(eval_cocycle(b, z, rep))
        rhs = tuple(eval_cocycle(a, z, rep)[i] + step[i] for i in range(3))
        assert lhs == rhs


def test_word_value_blocks_match_eval():
    # The oracle's t-basis blocks extend cocycles as the letter-by-letter
    # cocycle law does, and map onto the package's tau-basis blocks.
    rng = random.Random(4)
    rep = _laurent_rep()
    tau_rep = MeridianRep(LaurentRing())
    for _ in range(20):
        w = random_word(rng, 15)
        mx, my = word_value_blocks_oracle(w, rep)
        assert word_value_blocks(w, tau_rep) == (to_tau_basis(mx), to_tau_basis(my))
        z = CocycleValues(
            tuple(L({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(3)),
            tuple(L({rng.randint(-1, 1): rng.randint(-2, 2)}) for _ in range(3)),
        )
        direct = eval_cocycle(w, z, rep)
        via_blocks = tuple(
            mx.apply(z.z_x)[i] + my.apply(z.z_y)[i] for i in range(3)
        )
        assert direct == via_blocks


def _branch_reps(fraction):
    """The presentation of ``fraction`` and the meridian representation
    on each of its branches."""
    pres = build_presentation(fraction)
    reps = []
    for factor, _ in squarefree_decomposition(alexander_via_rep(fraction)):
        reps.append(burde_de_rham_oracle(ModulusBranch(factor), pres.relator))
    return pres, reps


def _assert_blocks_match_oracle(word, rep):
    blocks = word_value_blocks(word, rep)
    assert blocks == _oracle_blocks(word, rep)
    assert all(
        isinstance(e, AlgebraicElement) and e.branch == rep.ring.branch
        for block in blocks for row in block.rows for e in row
    )


def test_word_value_blocks_match_step_by_step_products():
    # The integer walk maps each entry into Q[tau]/(F) once at the end;
    # the oracle multiplies 3x3 t-basis adjoints over Q[t]/(F(t^2))
    # letter by letter, and its blocks are mapped into the tau basis.
    # 9/1 has the modulus Phi6 * Phi18 in tau, 147/53 has two branches;
    # the last four are the long-word knots.
    for fraction, degrees in (
        (TwoBridgeFraction(29, 17), [4]),
        (TwoBridgeFraction(23, 7), [4]),
        (TwoBridgeFraction(9, 1), [8]),
        (TwoBridgeFraction(147, 53), [2, 2]),
        (TwoBridgeFraction(485, 283), [4]),
        (TwoBridgeFraction(201, 77), [8]),
        (TwoBridgeFraction(41, 1), [40]),
    ):
        pres, reps = _branch_reps(fraction)
        assert [rep.ring.branch.degree for rep in reps] == degrees
        for rep in reps:
            _assert_blocks_match_oracle(pres.relator, rep)
            _assert_blocks_match_oracle(pres.longitude, rep)
    _, (rep,) = _branch_reps(TwoBridgeFraction(201, 77))
    rng = random.Random(201)
    for _ in range(20):
        _assert_blocks_match_oracle(random_word(rng, rng.randint(0, 60)), rep)


def test_word_value_blocks_of_random_words_match_the_mapped_oracle():
    # Over Q[tau, tau^-1] nothing is reduced, so the mapped t-basis
    # blocks must agree term by term.
    rng = random.Random(200)
    t_rep, tau_rep = _laurent_rep(), MeridianRep(LaurentRing())
    for _ in range(200):
        word = random_word(rng, rng.randint(0, 60))
        mx, my = word_value_blocks_oracle(word, t_rep)
        assert word_value_blocks(word, tau_rep) == (to_tau_basis(mx), to_tau_basis(my))


def test_packed_walk_holds_wide_coefficients_and_wide_exponent_spans():
    # The walk packs u and u^2 into one int each, with a slot width from
    # the bound L^3 of an L-letter word.  In (y x^-1)^500 and (y^-1 x)^500
    # every y letter falls at one exponent sum, so u = k t^+-1 and the
    # v+ v- entry of My sums k^2 over k < 500 and over k <= 500 (that
    # entry is checked too); x^150 y x^-300 y^-1 x^150 spreads the exponent sums over
    # [-150, 151].  The empty word and the single letters are the edges.
    x, y = Word.parse("x"), Word.parse("y")
    X, Y = x.inverse(), y.inverse()
    words = [
        (y * X) ** 500,
        (Y * x) ** 500,
        x**150 * y * X**300 * Y * x**150,
        Word(),
        x, X, y, Y,
    ]
    rep, tau_rep = _laurent_rep(), MeridianRep(LaurentRing())
    for word in words:
        assert meridian_walk(word, rep) == eval_word_matrix(word, rep)
        mx, my = word_value_blocks_oracle(word, rep)
        assert word_value_blocks(word, tau_rep) == (to_tau_basis(mx), to_tau_basis(my))
    for word, squares in zip(words, (499 * 500 * 999 // 6, 500 * 501 * 1001 // 6)):
        _, my = word_value_blocks(word, tau_rep)
        assert [abs(c) for c in my.rows[0][2].terms().values()] == [squares]


def _k1_rep():
    pres = build_presentation(TwoBridgeFraction(29, 17))
    branch = ModulusBranch(DELTA1)
    return pres, burde_de_rham_oracle(branch, pres.relator)


def test_trivial_relator_gives_zero_block():
    _, rep = _k1_rep()
    system = relator_system([Word.parse("xx^-1")], rep)
    assert all(e.is_zero for row in system.entries for e in row)


def test_k1_relator_system_rank_two():
    # Three live columns of rank 2 leave H^1 = 1; the six block columns
    # have the same rank and Z^1 = 4.
    pres, rep = _k1_rep()
    system = relator_system([pres.relator], rep)
    assert system.cols == 3
    assert [(r.rank, r.dim) for r in system.nullspace()] == [(2, 1)]
    six = MatrixOverField(relator_block_rows([pres.relator], rep), rep.ring)
    assert [(r.rank, r.dim) for r in six.nullspace()] == [(2, 4)]


def test_k1_filled_system_rank_three():
    pres, rep = _k1_rep()
    relators = [pres.relator, pres.longitude]
    system = relator_system(relators, rep)
    assert [(r.rank, r.dim) for r in system.nullspace()] == [(3, 0)]
    six = MatrixOverField(relator_block_rows(relators, rep), rep.ring)
    assert [(r.rank, r.dim) for r in six.nullspace()] == [(3, 3)]


def test_k1_knot_cohomology_dims():
    pres, rep = _k1_rep()
    leaves = cohomology_dims(relator_system([pres.relator], rep))
    assert [leaf.dim for leaf in leaves] == [1]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_family_filled_cohomology_vanishes(j):
    pres = build_presentation(family_fraction(j))
    delta = Poly([j, -(6 * j + 1), 10 * j + 3, -(6 * j + 1), j])
    branch = ModulusBranch(delta.monic())
    rep = burde_de_rham_oracle(branch, pres.relator)
    system = relator_system([pres.relator, pres.longitude], rep)
    for leaf in cohomology_dims(system):
        assert leaf.dim == 0
        assert [r.dim for r in h0_oracle(leaf.ring, rep)] == [0]


def test_no_common_fixed_vector_at_root_branches():
    # each generator image alone fixes the line spanned by its own
    # traceless part, but the pair has trivial common fixed space
    # whenever tau = t^2 != 1, which is what drives B^1 = 3
    _, rep = _k1_rep()
    for ad in (rep.ad_x, rep.ad_y):
        rows = [
            [ad.rows[i][j] - (1 if i == j else 0) for j in range(3)]
            for i in range(3)
        ]
        single = MatrixOverField(rows, rep.ring).nullspace()
        assert all(res.dim == 1 for res in single)
    assert [res.dim for res in h0_oracle(rep.ring, rep)] == [0]


def _fixture_fractions(name):
    for row in load_fixture(name):
        p, q = (int(part) for part in row["fraction"].split("/"))
        yield TwoBridgeFraction(p, q)


def _assert_ranks_match_the_oracle(matrix):
    results = matrix.nullspace()
    oracle = nullspace_oracle(matrix.entries, matrix.ring.branch)
    assert leaf_records(results) == leaf_records(oracle)
    return results


def test_h0_vanishes_on_every_census_and_long_word_branch():
    # H^1 = 3 - rank rests on H^0 = 0, hence B^1 = 3, from the unit
    # check; the fixed-space elimination must agree on every leaf of the
    # knot and 0-filled systems, built as check_rigidity builds them.
    # On each system the fraction-free elimination gives the leaves and
    # ranks of the RREF over the Fraction oracle.
    leaves = 0
    for name in ("census_p23.json", "long_words.json"):
        for fraction in _fixture_fractions(name):
            pres, reps = _branch_reps(fraction)
            for rep in reps:
                knot = relator_system([pres.relator], rep)
                longitude = relator_system([pres.longitude], rep)
                _assert_ranks_match_the_oracle(knot)
                for knot_leaf in cohomology_dims(knot):
                    filled = MatrixOverField(
                        knot.entries + longitude.entries, knot_leaf.ring
                    )
                    _assert_ranks_match_the_oracle(filled)
                    for leaf in [knot_leaf] + cohomology_dims(filled):
                        assert [r.dim for r in h0_oracle(leaf.ring, rep)] == [0]
                        leaves += 1
    assert leaves > 80


def test_rank_elimination_matches_the_echelon_oracle():
    # The elimination clears by row_r <- piv * row_r - f * row_pivot and
    # tests each pivot with one gcd; its entries differ from the RREF's
    # by unit factors, so it splits on the same gcds.  Seeded random
    # matrices over a product of six factors, whose entries are zero
    # divisors by construction, then the split systems of 147/53 on the
    # product of its branch moduli and of 115/42 on its branches.
    rng = random.Random(53)
    factors = [
        Poly([-2, 1]), Poly([3, 1]), Poly([-2, 0, 1]), Poly([1, 1, 1]),
        Poly([5, 0, 0, 1]), Poly([-1, 1, 0, 2]),
    ]
    modulus = Poly([1])
    for factor in factors:
        modulus = modulus * factor
    ring = QuotientRing(ModulusBranch(modulus))
    splits = 0
    for _ in range(12):
        rows = []
        for _ in range(rng.randint(2, 4)):
            row = []
            for _ in range(rng.randint(3, 4) if not rows else len(rows[0])):
                entry = Poly([rng.randint(-2, 2), rng.randint(-2, 2)])
                for factor in rng.sample(factors, rng.randint(0, 3)):
                    entry = entry * factor
                row.append(entry)
            rows.append(row)
        results = _assert_ranks_match_the_oracle(MatrixOverField(rows, ring))
        splits += len(results) - 1
    assert splits > 10

    pres, reps = _branch_reps(TwoBridgeFraction(147, 53))
    product = reps[0].ring.branch.modulus * reps[1].ring.branch.modulus
    rep = burde_de_rham_oracle(ModulusBranch(product), pres.relator)
    _assert_ranks_match_the_oracle(relator_system([pres.relator], rep))
    filled = relator_system([pres.relator, pres.longitude], rep)
    assert len(_assert_ranks_match_the_oracle(filled)) == 2

    pres, reps = _branch_reps(TwoBridgeFraction(115, 42))
    leaves = 0
    for rep in reps:
        knot = relator_system([pres.relator], rep)
        longitude = relator_system([pres.longitude], rep)
        for knot_leaf in _assert_ranks_match_the_oracle(knot):
            filled = MatrixOverField(knot.entries + longitude.entries, knot_leaf.ring)
            leaves += len(_assert_ranks_match_the_oracle(filled))
    assert leaves > len(reps)


def test_cohomology_dims_rejects_a_branch_where_t_squared_is_one():
    # At t = +-1, tau = 1, Ad(x) = 1 in either basis, so H^0 would be a
    # line and B^1 = 3 wrong.  The branch (tau - 1)(tau^2 - 3tau + 1)
    # cannot be built, so cohomology_dims never sees one; on
    # tau^2 - 3tau + 1 alone H^0 = 0.
    ad_x = _laurent_rep().ad_x
    for t in (1, -1):
        assert Mat3([[e(t) for e in row] for row in ad_x.rows]) == Mat3.identity()
    tau_ad_x = MeridianRep(LaurentRing()).ad_x
    assert Mat3([[e(1) for e in row] for row in tau_ad_x.rows]) == Mat3.identity()
    factor = Poly([1, -3, 1])
    with pytest.raises(ValueError, match="tau = 1:"):
        ModulusBranch(Poly([-1, 1]) * factor)
    rep = MeridianRep(QuotientRing(ModulusBranch(factor)))
    assert [leaf.dim for leaf in h0_oracle(rep.ring, rep)] == [0]


def test_trivial_representation_dims():
    # No relator: every value pair is a cocycle (Z^1 = 6), and on a
    # branch with tau != 1 the coboundaries span 3 dimensions.
    _, rep = _k1_rep()
    leaves = cohomology_dims(relator_system([], rep))
    assert [leaf.dim for leaf in leaves] == [3]


def test_coboundaries_lie_in_every_cocycle_space():
    pres, rep = _k1_rep()
    rows = relator_block_rows([pres.relator, pres.longitude], rep)
    for k in range(3):
        unit = [1 if i == k else 0 for i in range(3)]
        cb = coboundary_values(unit, rep)
        image = matrix_times(rows, cb.z_x + cb.z_y)
        assert all(entry.is_zero for entry in image)


def _patch_one_block_entry(monkeypatch, row, column):
    """Make the first ``word_value_blocks`` call that ``relator_system``
    makes return its blocks with 1 added at ``row`` and ``column`` of
    (a0, a1, a2 | b0, b1, b2)."""
    calls = []

    def patched(word, rep):
        blocks = list(word_value_blocks(word, rep))
        calls.append(word)
        if len(calls) == 1:
            side, col = divmod(column, 3)
            rows = [list(r) for r in blocks[side].rows]
            rows[row][col] = rows[row][col] + 1
            blocks[side] = Mat3(rows)
        return tuple(blocks)

    monkeypatch.setattr(cohomology, "word_value_blocks", patched)


def test_knot_walk_rows_match_the_word_oracles():
    # knot_walk reads every row off one walk of w by the cocycle law and
    # rho(relator) = I; the oracles walk the relator and the longitude
    # words.  The two identity residues agree as Laurent polynomials in
    # tau: the relator's b/t is t^n ((t - 1/t) b - t^n) for w's image,
    # and the longitude's b/t is that of x^-2n W V.  On each branch the
    # knot rows, all six entries of each, and the longitude row agree
    # entry by entry: on every branch of the census and long-word
    # fixtures, on 115/42 (a split), 289/38 (knot rank 1), 343/123 (a
    # cubed factor) and on the family for j <= 20.
    fractions = list(_fixture_fractions("census_p23.json"))
    fractions += _fixture_fractions("long_words.json")
    fractions += [TwoBridgeFraction(p, q) for p, q in ((115, 42), (289, 38), (343, 123))]
    fractions += [family_fraction(j) for j in range(1, 21)]
    branches = 0
    for fraction in fractions:
        pres, reps = _branch_reps(fraction)
        walk = knot_walk(pres)
        n, b = image_terms(pres.relator)
        assert n == 0 and walk.relator == tau_terms(b, -1)
        n, u, _, _ = row_terms(pres.longitude)
        assert n == 0 and walk.longitude == tau_terms(u, -1)
        longitude = pres.longitude
        assert (walk.x11, walk.y11) == (longitude.exponent_sum("x"), longitude.exponent_sum("y"))
        for rep in reps:
            zero, one = rep.ring.zero, rep.ring.one
            a0, a1, a2, b0, b1, b2, b2_1, a2_2, b2_2 = rep.ring.evaluate(walk.rows)
            assert relator_block_rows([pres.relator], rep) == [
                (a0, a1, a2, b0, b1, b2),
                (zero, one, zero, zero, -one, b2_1),
                (zero, zero, a2_2, zero, zero, b2_2),
            ]
            knot, row = knot_rows(walk, rep.ring.branch)
            assert knot.entries == relator_system([pres.relator], rep).entries
            assert row == longitude_row(longitude, rep)
            branches += 1
    assert (len(fractions), branches) == (64, 65)


def _walk_blocks(sums, counts, u_sums, u_squared_sums):
    """Entries 00, 01, 02, 11, 12 and 22 of one generator's block from
    the per-m sums of ``cohomology._riley_walk``, in t, term by term."""
    low, width = sums.low, sums.width
    span = len(counts)
    entries = [{}, {}, {}, {}, {}, {}]

    def add(entry, terms, shift, scale=1):
        for e, c in terms.items():
            entry[e + shift] = entry.get(e + shift, 0) + scale * c

    for j, (c, u_m, v_m) in enumerate(zip(counts, u_sums, u_squared_sums)):
        m = low + j
        add(entries[0], {2 * m: c}, 0)
        add(entries[3], {0: c}, 0)
        add(entries[5], {-2 * m: c}, 0)
        u_terms = cohomology._terms(u_m, width, span, 2 * low + 1)
        add(entries[1], u_terms, 0, -2)
        add(entries[4], u_terms, -2 * m)
        v_terms = cohomology._terms(v_m, width, 2 * span - 1, 4 * low + 2)
        add(entries[2], v_terms, -2 * m, -1)
    return [{e: c for e, c in entry.items() if c} for entry in entries]


def test_riley_walk_sums_w_and_v_in_one_pass():
    # One pass over w's letters keeps w's image and sums, and v's u and
    # sums read at the same letters with x and y exchanged.  w's blocks
    # from those sums are _block_terms(w); v's image and entries 12 are
    # row_terms(v), and v's counts, w's exchanged, give its entries 22.
    fractions = [TwoBridgeFraction(*map(int, f.split("/"))) for f in census(41)]
    fractions += _fixture_fractions("long_words.json")
    fractions += [TwoBridgeFraction(p, q) for p, q in ((115, 42), (289, 38), (343, 123))]
    for fraction in fractions:
        pres = build_presentation(fraction)
        sums = cohomology._riley_walk(pres.w.letters)
        span = len(sums.counts[0])
        w_blocks = []
        for g in (0, 1):
            w_blocks += _walk_blocks(
                sums, sums.counts[g], sums.u_sums[g], sums.u_squared_sums[g]
            )
        assert w_blocks == _block_terms(pres.w)
        n, b = image_terms(pres.w)
        u = cohomology._terms(sums.u, sums.width, span, 2 * sums.low + 1)
        assert (sums.n, u) == (n, {e + n: c for e, c in b.items()})
        no_squares = [0] * span
        v_blocks = [
            _walk_blocks(sums, sums.counts[1 - g], sums.v_u_sums[g], no_squares)
            for g in (0, 1)
        ]
        u_v = cohomology._terms(sums.u_v, sums.width, span, 2 * sums.low + 1)
        assert row_terms(pres.v) == (sums.n, u_v, v_blocks[0][4], v_blocks[1][4])
        v_terms = _block_terms(pres.v)
        assert (v_blocks[0][5], v_blocks[1][5]) == (v_terms[5], v_terms[11])


def _patch_one_walk_term(monkeypatch, index):
    """Make every ``knot_walk`` return its polynomial ``index``, in the
    order it unpacks them (the relator residue, the longitude image, the
    nine knot row entries, x12 and y12), with 1 added at tau^0."""
    unpacked = cohomology._unpack_terms

    def patched(polys, width):
        terms = unpacked(polys, width)
        terms[index] = {**terms[index], 0: terms[index].get(0, 0) + 1}
        return terms

    monkeypatch.setattr(cohomology, "_unpack_terms", patched)


def test_coboundary_check_catches_a_corrupted_system(monkeypatch):
    # One relator entry off by 1 on the 29/17 branch: row 0 then sends
    # the coboundary of v+ to tau - 1, a unit on every leaf.
    pres = build_presentation(TwoBridgeFraction(29, 17))
    walk = knot_walk(pres)
    branch = ModulusBranch(DELTA1)
    system, _ = knot_rows(walk, branch)
    assert [leaf.dim for leaf in cohomology_dims(system)] == [1]
    # Entry a0 of row 0, the first of the knot rows.
    _patch_one_walk_term(monkeypatch, 2)
    with pytest.raises(AssertionError, match="a coboundary escaped the cocycle space"):
        knot_rows(knot_walk(pres), branch)


def test_longitude_row_is_row_one_of_the_blocks():
    # The walk without u^2 gives entries 12 of both blocks as the full
    # walk does, and n and u = t^n b as the image walk does, on random
    # words and on the wide words of the packed walk's test; entries 11
    # are the exponent sums.  On every census and long-word branch,
    # longitude_row passes its checks and is (x11, x12, y12) of the
    # longitude's blocks, with y11 as checked.
    rng = random.Random(12)
    x, y = Word.parse("x"), Word.parse("y")
    X, Y = x.inverse(), y.inverse()
    words = [random_word(rng, rng.randint(0, 60)) for _ in range(100)]
    words += [(y * X) ** 500, (Y * x) ** 500, x**150 * y * X**300 * Y * x**150, Word()]
    for word in words:
        terms = _block_terms(word)
        n, b = image_terms(word)
        assert row_terms(word) == (
            n, {e + n: c for e, c in b.items()}, terms[4], terms[10]
        )
        for entry, gen in ((terms[3], "x"), (terms[9], "y")):
            assert entry == ({0: word.exponent_sum(gen)} if word.exponent_sum(gen) else {})
    rows = 0
    for name in ("census_p23.json", "long_words.json"):
        for fraction in _fixture_fractions(name):
            pres, reps = _branch_reps(fraction)
            for rep in reps:
                mx, my = word_value_blocks(pres.longitude, rep)
                assert longitude_row(pres.longitude, rep) == (
                    mx.rows[1][1], mx.rows[1][2], my.rows[1][2]
                )
                assert my.rows[1][1] == (rep.tau - 1) * (mx.rows[1][2] + my.rows[1][2])
                rows += 1
    assert rows > 40


def test_coboundary_check_catches_a_corrupted_longitude_row(monkeypatch, capsys):
    # x12 off by t (1 in tau after the shift into the basis): the check
    # y11 = (tau - 1)(x12 + y12) then misses by tau - 1, a unit, and
    # certify exits 2 with one error line instead of a verdict.
    pres = build_presentation(TwoBridgeFraction(29, 17))
    branch = ModulusBranch(DELTA1)
    assert len(knot_rows(knot_walk(pres), branch)[1]) == 3
    # x12 of the longitude row, the last but one.
    _patch_one_walk_term(monkeypatch, 11)
    with pytest.raises(AssertionError, match="a coboundary escaped the cocycle space"):
        knot_rows(knot_walk(pres), branch)
    assert cli.main(["certify", "--pq", "29/17", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a coboundary escaped the cocycle space\n"


def _coboundary_products(rows, rep):
    """Each row times the coboundary of each basis vector: the pair of
    columns k of Ad(x) - 1 and Ad(y) - 1, from the t-basis oracle's
    generator adjoints mapped into the basis (v+, t v0, v-)."""
    oracle = generator_adjoints(_t_rep(rep))
    ads = [to_tau_basis(oracle[(gen, 1)], rep.ring) for gen in ("x", "y")]
    columns = [
        [ad.rows[i][k] - (1 if i == k else 0) for ad in ads for i in range(3)]
        for k in range(3)
    ]
    return [matrix_times([row], column)[0] for row in rows for column in columns]


def test_one_product_check_matches_the_full_coboundary_products():
    # The check a0 = b0 = 0 and b1 = (tau - 1)(a2 + b2) per row stands
    # for the 3 x 6 products of the row with the coboundary columns.  On
    # the census knots' block rows every product vanishes and
    # relator_system passes; adding 1 to one row of the relator's block
    # at column 0 (a0), 3 (b0) or 4 (b1) makes a product nonzero, and
    # relator_system must raise.  Column 1 (a1) meets only the zero
    # column 1 of Ad(x) - 1, so no coboundary sees it and the check must
    # pass.
    relators = 0
    for fraction in _fixture_fractions("census_p23.json"):
        pres, reps = _branch_reps(fraction)
        words = [pres.relator, pres.longitude]
        for rep in reps:
            block_rows = relator_block_rows(words, rep)
            assert all(not e for e in _coboundary_products(block_rows, rep))
            relator_system(words, rep)
            for row, column in itertools.product(range(3), (0, 1, 3, 4)):
                rows = [list(r) for r in block_rows]
                rows[row][column] = rows[row][column] + 1
                with pytest.MonkeyPatch.context() as patch:
                    _patch_one_block_entry(patch, row, column)
                    if column == 1:
                        assert all(not e for e in _coboundary_products(rows, rep))
                        relator_system(words, rep)
                        continue
                    assert any(_coboundary_products(rows[row:row + 1], rep))
                    with pytest.raises(AssertionError, match="a coboundary escaped"):
                        relator_system(words, rep)
            relators += 1
    assert relators >= 37


def test_tau_systems_agree_with_the_t_basis_oracle():
    # The knot and 0-filled systems over Q[tau]/(F), as check_rigidity
    # builds them, against the RREF oracle on the step-by-step t-basis
    # rows over Q[t]/(F(t^2)): the same leaves, with moduli and split
    # lineages inflated by tau -> t^2, and the same ranks.  115/42 splits
    # its knot system; on the product of 147/53's two branch moduli the
    # filled system splits.
    def inflated(branch):
        return (
            branch.modulus.inflate(2),
            tuple(
                SplitRecord(r.parent.inflate(2), r.factor.inflate(2), r.cofactor.inflate(2))
                for r in branch.lineage
            ),
        )

    def t_rows(words, t_rep):
        rows = []
        for word in words:
            mx, my = word_value_blocks_oracle(word, t_rep)
            rows += [mx.rows[i] + my.rows[i] for i in range(3)]
        return rows

    cases = [(pres, rep) for fraction in _fixture_fractions("census_p23.json")
             for pres, reps in [_branch_reps(fraction)] for rep in reps]
    for p, q in ((115, 42), (147, 53), (485, 283)):
        pres, reps = _branch_reps(TwoBridgeFraction(p, q))
        cases += [(pres, rep) for rep in reps]
    pres, reps = _branch_reps(TwoBridgeFraction(147, 53))
    product = reps[0].ring.branch.modulus * reps[1].ring.branch.modulus
    cases.append((pres, burde_de_rham_oracle(ModulusBranch(product), pres.relator)))
    splits = 0
    for pres, rep in cases:
        t_rep = _t_rep(rep)
        knot_rows = t_rows([pres.relator], t_rep)
        filled_rows = knot_rows + t_rows([pres.longitude], t_rep)
        knot = relator_system([pres.relator], rep)
        longitude = relator_system([pres.longitude], rep)
        knot_leaves = knot.nullspace()
        oracle = nullspace_oracle(knot_rows, t_rep.ring.branch)
        assert [inflated(r.branch) + (r.rank,) for r in knot_leaves] == leaf_records(oracle)
        for knot_leaf in knot_leaves:
            filled = MatrixOverField(knot.entries + longitude.entries, knot_leaf.ring)
            filled_leaves = filled.nullspace()
            t_leaf = ModulusBranch(*inflated(knot_leaf.branch))
            oracle = nullspace_oracle(filled_rows, t_leaf)
            assert [inflated(r.branch) + (r.rank,) for r in filled_leaves] == (
                leaf_records(oracle)
            )
            splits += len(filled_leaves) - 1
        splits += len(knot_leaves) - 1
    assert len(cases) > 40 and splits >= 2


def test_three_live_columns_eliminate_like_the_six_block_columns():
    # relator_system keeps the columns (a1, a2, b2) of the checked block
    # rows.  Eliminating all six columns gives the same leaf moduli,
    # lineages and ranks, for the knot system and for the filled system
    # on each knot leaf, the three knot classes that split included.
    fractions = list(_fixture_fractions("census_p23.json"))
    fractions += [TwoBridgeFraction(p, q) for p, q in ((115, 42), (195, 82), (205, 78))]
    splits = 0
    for fraction in fractions:
        pres, reps = _branch_reps(fraction)
        for rep in reps:
            knot_rows = relator_block_rows([pres.relator], rep)
            longitude_rows = relator_block_rows([pres.longitude], rep)
            knot = relator_system([pres.relator], rep)
            longitude = relator_system([pres.longitude], rep)
            knot_leaves = knot.nullspace()
            six = MatrixOverField(knot_rows, rep.ring).nullspace()
            assert leaf_records(knot_leaves) == leaf_records(six)
            for leaf in knot_leaves:
                filled = MatrixOverField(knot.entries + longitude.entries, leaf.ring)
                six = MatrixOverField(knot_rows + longitude_rows, leaf.ring)
                filled_leaves = filled.nullspace()
                assert leaf_records(filled_leaves) == leaf_records(six.nullspace())
                splits += len(filled_leaves) - 1
            splits += len(knot_leaves) - 1
    assert splits >= 3


def test_cohomology_dims_on_a_system_that_splits():
    # On the product of 147/53's two branch moduli the filled system's
    # elimination splits; each leaf's dimensions, including the
    # coboundary check reduced onto the leaf, are those of its own
    # branch.
    pres, reps = _branch_reps(TwoBridgeFraction(147, 53))
    product = reps[0].ring.branch.modulus * reps[1].ring.branch.modulus
    rep = burde_de_rham_oracle(ModulusBranch(product), pres.relator)
    leaves = cohomology_dims(relator_system([pres.relator, pres.longitude], rep))
    assert len(leaves) == 2
    assert leaves[0].branch.modulus * leaves[1].branch.modulus == product
    for leaf in leaves:
        (own,) = [r for r in reps if r.ring.branch == leaf.branch]
        (expected,) = cohomology_dims(
            relator_system([pres.relator, pres.longitude], own)
        )
        assert leaf.dim == expected.dim


def test_normalized_representative_fixes_normal_form():
    pres, rep = _k1_rep()
    branch = rep.ring.branch
    z = CocycleValues(
        (branch.element(0), branch.element(2), branch.t()),
        (branch.element(0), branch.element(2), branch.element(0)),
    )
    out = normalized_representative(z, rep)
    assert out.z_x == z.z_x and out.z_y == z.z_y


def test_normalized_representative_kills_coboundaries():
    pres, rep = _k1_rep()
    branch = rep.ring.branch
    v = (branch.t(), branch.element(5), branch.t() * branch.t())
    cb = coboundary_values(v, rep)
    out = normalized_representative(cb, rep)
    assert all(e.is_zero for e in out.z_x) and all(e.is_zero for e in out.z_y)


def test_normalized_cocycles_satisfy_delta_equals_alpha():
    # holds for cocycles of the knot group and hence for the 0-filled
    # group, whose cocycles form a subspace
    rng = random.Random(12)
    pres, rep = _k1_rep()
    for relators in ([pres.relator], [pres.relator, pres.longitude]):
        rows = relator_block_rows(relators, rep)
        for leaf in cohomology_dims(relator_system(relators, rep)):
            branch = leaf.branch
            leaf_rep = burde_de_rham_oracle(branch, pres.relator)
            # Z^1 = H^1 + B^1, and B^1 = 3.
            (oracle,) = nullspace_oracle(rows, branch)
            assert len(oracle.basis) == leaf.dim + 3
            basis = [[branch.element(e.value) for e in vec] for vec in oracle.basis]
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                vec = [branch.element(0)] * 6
                for c, basis_vec in zip(coeffs, basis):
                    vec = [vec[i] + c * basis_vec[i] for i in range(6)]
                z = CocycleValues(tuple(vec[:3]), tuple(vec[3:]))
                out = normalized_representative(z, leaf_rep)
                assert out.z_y[1] == out.z_x[1]


def test_normalized_representative_rejects_t2_equal_1():
    # Normalizing divides by tau - 1 = t^2 - 1; a branch where it is not
    # a unit cannot be built.
    with pytest.raises(ValueError, match="tau = 1:"):
        ModulusBranch(Poly([-1, 0, 1]))


def test_family_forms_j1_geometric_sum_is_identity():
    forms = family_cocycle_forms(1)
    assert forms.sum_u == Mat3.identity()
    assert forms.sum_s == Mat3.identity()


def test_family_forms_omega3_is_t_times_f():
    forms = family_cocycle_forms(1)
    assert forms.omega3_beta == LaurentPoly.monomial(1) * f_upper_entry(1)
    assert forms.nu3_beta == -forms.omega3_beta


def test_family_forms_omega2_j2():
    forms = family_cocycle_forms(2)
    assert forms.omega2_beta == L(
        {7: 3, 5: -30, 3: 102, 1: -134, -1: 67, -3: -14, -5: 1}
    )
    assert forms.nu2_beta == L(
        {7: 3, 5: -30, 3: 98, 1: -116, -1: 63, -3: -14, -5: 1}
    )


def test_family_forms_expose_unspecified_parts():
    forms = family_cocycle_forms(1)
    assert isinstance(forms.h_beta, LaurentPoly)
    assert isinstance(forms.nu1_beta, LaurentPoly)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_family_forms_verify(j):
    family_cocycle_forms(j)  # raises ClosedFormMismatch on any failure


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_family_forms_match_the_step_by_step_oracles(j):
    rep = _laurent_rep()
    z_alpha, z_beta = _normal_values(rep)
    forms = family_cocycle_forms(j)
    w, v = family_word(j), family_v(j)
    assert eval_cocycle(w, z_alpha, rep) == (forms.omega1_alpha, 0, 0)
    assert eval_cocycle(w, z_beta, rep) == (
        forms.h_beta, forms.omega2_beta, forms.omega3_beta
    )
    assert eval_cocycle(v, z_alpha, rep) == (forms.nu1_alpha, 0, 0)
    assert eval_cocycle(v, z_beta, rep) == (
        forms.nu1_beta, forms.nu2_beta, forms.nu3_beta
    )
    for word, expected in ((FAMILY_U, forms.sum_u), (FAMILY_S, forms.sum_s)):
        ad = adjoint(eval_word_matrix(word, rep))
        assert geometric_sum_oracle(ad, j) == expected


@pytest.mark.parametrize("j", range(1, 9))
def test_geometric_sum_matches_the_power_by_power_oracle(j):
    rep = _laurent_rep()
    for word in (FAMILY_U, FAMILY_S):
        ad = adjoint(eval_word_matrix(word, rep))
        assert _geometric_sum(ad, j) == geometric_sum_oracle(ad, j)


def test_geometric_sum_rejects_a_matrix_that_is_not_unipotent():
    ad_x = _laurent_rep().ad_x  # diag(t^2, 1, t^-2)
    with pytest.raises(ClosedFormMismatch):
        _geometric_sum(ad_x, 3)
    shear = Mat3(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    assert _geometric_sum(shear, 5) == geometric_sum_oracle(shear, 5)


def test_vanishing_identity_j1():
    expected = L({7: 1, 5: -8, 3: 18, -1: -18, -3: 8, -5: -1})
    assert vanishing_identity(1) == expected


def test_vanishing_identity_j2():
    quartic = L({4: 1, 2: -4, 0: 1})
    expected = (L({4: 1, 0: -1}) * (L({4: 1}) + 2 * quartic * quartic)).shift(-5)
    assert vanishing_identity(2) == expected


def test_vanishing_identity_zero_at_one():
    for j in (1, 2, 3):
        assert vanishing_identity(j)(1) == 0


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_vanishing_steps_are_coprime_to_the_modulus(j):
    # step 1: the longitude forces beta = 0 because the identity
    # polynomial is a unit multiple of a polynomial coprime to the
    # modulus; step 2: the relator then forces alpha = 0 the same way
    delta = Poly([j, -(6 * j + 1), 10 * j + 3, -(6 * j + 1), j])
    modulus = delta.monic().inflate(2)
    beta_poly = vanishing_identity(j).shift(5).to_poly()
    assert poly_gcd(beta_poly, modulus).degree == 0
    alpha_poly = Poly([2 * j, 0, -(6 * j + 1), 0, 2 * j])  # 2j t^4 - (6j+1) t^2 + 2j
    assert poly_gcd(alpha_poly, modulus).degree == 0
