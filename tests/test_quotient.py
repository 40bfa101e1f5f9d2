import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    QuotientOracle,
    leaf_records,
    matrix_times,
    nullspace_oracle,
    oracle_rows,
    poly_gcd,
    quotient_evaluate_oracle,
)
from lodehn.polynomials import Poly, squarefree_decomposition
from lodehn.quotient import (
    AlgebraicElement,
    MatrixOverField,
    ModulusBranch,
    QuotientRing,
    SplitRequired,
    _pack,
    _echelon,
    _slot_width,
    _unpack,
)
from lodehn.reps import alexander_via_rep
from lodehn.twobridge import TwoBridgeFraction

T2_MINUS_4 = Poly([-4, 0, 1])


def _rationals():
    """Q[t]/(t - 2), whose residues are the rationals."""
    return QuotientRing(ModulusBranch(Poly([-2, 1])))


def test_invert_zero_divisor_splits():
    # The pivot t - 2 is a zero divisor mod t^2 - 4: the elimination
    # splits on it where the RREF oracle's inverse does.
    branch = ModulusBranch(T2_MINUS_4)
    rows = [[branch.element(Poly([-2, 1]))]]
    results = MatrixOverField(rows, QuotientRing(branch)).nullspace()
    assert leaf_records(results) == leaf_records(nullspace_oracle(rows, branch))
    low, high = results[0].branch, results[1].branch
    assert (low.modulus, high.modulus) == (Poly([-2, 1]), Poly([2, 1]))
    assert [(r.rank, r.dim) for r in results] == [(0, 1), (1, 0)]
    assert low.modulus * high.modulus == T2_MINUS_4
    assert low.lineage and low.lineage[0].parent == T2_MINUS_4


def test_branch_requires_squarefree():
    with pytest.raises(ValueError):
        ModulusBranch(Poly([1, -2, 1]))
    with pytest.raises(ValueError):
        ModulusBranch(Poly([5]))


def test_branch_accepts_exactly_the_moduli_coprime_to_tau2_minus_tau():
    # tau^2 - tau has only linear factors, so the two integer values
    # F(0) and F(1) decide what the gcd with it decides.  Seeded random
    # square-free moduli, half of them with a factor tau, tau - 1 or
    # tau + 1; a root at tau = -1 (t = +-i) is accepted.
    rng = random.Random(3)
    tau2_minus_tau = Poly([0, -1, 1])
    accepted = refused = at_minus_one = 0
    for _ in range(300):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        modulus = Poly(coeffs + [rng.randint(1, 3)])
        if rng.random() < 0.5:
            modulus = modulus * Poly([rng.choice((0, 1, -1)), 1])
        if modulus.degree < 1 or poly_gcd(modulus, modulus.derivative()).degree:
            continue
        if poly_gcd(modulus, tau2_minus_tau).degree == 0:
            assert ModulusBranch(modulus).modulus == modulus.monic()
            accepted += 1
            at_minus_one += modulus(-1) == 0
        else:
            with pytest.raises(ValueError, match="must be units"):
                ModulusBranch(modulus)
            refused += 1
    assert accepted > 50 and refused > 50 and at_minus_one > 10


def test_branch_on_a_dense_modulus_of_degree_100():
    # Leading coefficient 3, coefficients in [-9, 9]; the square-free
    # check is a gcd with the derivative.
    rng = random.Random(100)
    coeffs = [rng.randint(-9, 9) for _ in range(100)] + [3]
    coeffs[0] = coeffs[0] or 1
    assert ModulusBranch(Poly(coeffs)).degree == 100
    f = Poly([rng.randint(-9, 9) for _ in range(30)] + [3])
    g = Poly([rng.randint(-9, 9) for _ in range(40)] + [2])
    with pytest.raises(ValueError, match="square-free"):
        ModulusBranch(f * f * g)


def test_mixed_branches_rejected():
    a = ModulusBranch(Poly([-2, 0, 1]))
    b = ModulusBranch(Poly([-3, 0, 1]))
    with pytest.raises(ValueError):
        a.t() + b.t()


def _product_of_moduli(results):
    product = Poly([1])
    for res in results:
        product = product * res.branch.modulus
    return product


def test_branch_conservation_under_forced_splits():
    # modulus with four rational roots; diagonal entries are zero
    # divisors, so elimination must fork repeatedly
    modulus = Poly([1])
    for root in (2, 3, 4, 5):
        modulus = modulus * Poly([-root, 1])
    branch = ModulusBranch(modulus)
    t = branch.t()
    rows = [
        [t - 3, branch.element(0)],
        [branch.element(0), (t - 4) * (t - 5)],
    ]
    results = MatrixOverField(rows, QuotientRing(branch)).nullspace()
    assert len(results) == 3
    assert leaf_records(results) == leaf_records(nullspace_oracle(rows, branch))
    assert _product_of_moduli(results) == modulus
    for res in results:
        for record in res.branch.lineage:
            assert record.factor * record.cofactor == record.parent


def test_nullspace_identity_and_zero():
    ring = _rationals()
    eye = MatrixOverField([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ring)
    assert [(r.rank, r.dim) for r in eye.nullspace()] == [(3, 0)]
    zero = MatrixOverField([[0, 0, 0], [0, 0, 0], [0, 0, 0]], ring)
    assert [(r.rank, r.dim) for r in zero.nullspace()] == [(0, 3)]


def _assert_kernel_bases(rows, branch, results):
    # The elimination reports ranks only; the oracle's kernel basis on
    # each leaf has one vector per dimension, and each kills the rows.
    leaves = nullspace_oracle(rows, branch)
    assert [(leaf.branch, leaf.rank) for leaf in leaves] == [
        (res.branch, res.rank) for res in results
    ]
    for leaf in leaves:
        assert len(leaf.basis) == leaf.dim
        for vec in leaf.basis:
            image = matrix_times(oracle_rows(rows, leaf.branch), vec)
            assert all(v == 0 for v in image)


def test_nullspace_basis_certificates():
    rng = random.Random(23)
    ring = _rationals()
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)
        ]
        matrix = MatrixOverField(rows, ring)
        results = matrix.nullspace()
        for res in results:
            assert res.rank + res.dim == 5
        _assert_kernel_bases(matrix.entries, ring.branch, results)


def test_nullspace_basis_certificates_on_branch():
    modulus = Poly([1, 0, -3, 0, 1])  # t^4 - 3 t^2 + 1
    branch = ModulusBranch(modulus)
    t = branch.t()
    rows = [[t * t - 1, t, branch.element(1)], [t, t, t]]
    results = MatrixOverField(rows, QuotientRing(branch)).nullspace()
    assert [res.dim for res in results] == [1, 1]
    _assert_kernel_bases(rows, branch, results)


def test_nullspace_dim_invariant_under_row_shuffles():
    rng = random.Random(41)
    ring = _rationals()
    rows = [
        [Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(6)
    ]
    base = MatrixOverField(rows, ring).nullspace()[0].dim
    for _ in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert MatrixOverField(shuffled, ring).nullspace()[0].dim == base


def test_resumed_elimination_matches_the_oracle_on_the_stacked_rows():
    # Each leaf of a head system keeps echelon rows: zero left of a unit
    # pivot, one per pivot column, as many as the rank.  Resumed from
    # them with tail rows, every leaf has the rank of the RREF oracle on
    # head and tail stacked, on every leaf of the oracle's own splits,
    # and the leaves' moduli multiply back.  Seeded matrices over a
    # product of six factors, so the resumed step splits too.
    rng = random.Random(59)
    factors = [
        Poly([-2, 1]), Poly([3, 1]), Poly([-2, 0, 1]), Poly([1, 1, 1]),
        Poly([5, 0, 0, 1]), Poly([-1, 1, 0, 2]),
    ]
    modulus = Poly([1])
    for factor in factors:
        modulus = modulus * factor
    branch = ModulusBranch(modulus)

    def entry():
        value = Poly([rng.randint(-2, 2), rng.randint(-2, 2)])
        for factor in rng.sample(factors, rng.randint(0, 3)):
            value = value * factor
        return value

    resumed_splits = 0
    for _ in range(30):
        cols = rng.randint(3, 4)
        head = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        tail = [[entry() for _ in range(cols)] for _ in range(rng.randint(1, 2))]
        leaves = []
        for head_leaf in MatrixOverField(head, QuotientRing(branch)).nullspace():
            pivots = [next(c for c, e in enumerate(row) if e) for row in head_leaf.echelon]
            assert len(set(pivots)) == len(pivots) == head_leaf.rank
            for row, col in zip(head_leaf.echelon, pivots):
                assert poly_gcd(head_leaf.branch.modulus, row[col].value).degree == 0
            resumed = MatrixOverField(
                head_leaf.echelon + tuple(tail), head_leaf.ring, head_leaf.rank
            ).nullspace()
            resumed_splits += len(resumed) - 1
            leaves += resumed
        for leaf in leaves:
            oracle = nullspace_oracle(head + tail, leaf.branch)
            assert {o.rank for o in oracle} == {leaf.rank}
        assert _product_of_moduli(leaves) == branch.modulus
    assert resumed_splits >= 5


def test_rational_matrix_rejects_bad_entries():
    with pytest.raises(TypeError):
        MatrixOverField([[object()]], _rationals())


def test_split_required_reports_both_leaves():
    branch = ModulusBranch(T2_MINUS_4)
    with pytest.raises(SplitRequired) as err:
        _echelon([[branch.element(Poly([-2, 1]))]], 1, branch, 0)
    assert err.value.low.modulus * err.value.high.modulus == T2_MINUS_4


def _oracle_moduli():
    """Seeded square-free moduli of degree 1 to 100 with rational
    coefficients, and the lifted Alexander factors of 7/3 and 9/2,
    whose primitive integer forms have leading coefficient 2.  Those of
    degree 40 and 100 are trinomials: the oracle's Euclid over Q takes
    seconds on a denser modulus of that degree."""
    rng = random.Random(7)
    branches = []
    for degree in (1, 2, 3, 5, 8, 13, 21, 40, 100):
        while True:
            if degree < 40:
                coeffs = [
                    Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
                    for _ in range(degree)
                ]
            else:
                coeffs = [Fraction(0)] * degree
                coeffs[rng.randrange(1, degree)] = Fraction(rng.randint(-9, 9), 7)
            coeffs[0] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 5)))
            coeffs.append(Fraction(rng.randint(1, 5), rng.choice((1, 3))))
            try:
                branches.append(ModulusBranch(Poly(coeffs)))
            except ValueError:  # not square-free, or a root at 0 or 1
                continue
            break
    for p, q in ((7, 3), (9, 2)):
        for factor, _ in squarefree_decomposition(alexander_via_rep(TwoBridgeFraction(p, q))):
            branches.append(ModulusBranch(factor.monic().inflate(2)))
    assert sum(b.modulus.primitive().leading == 2 for b in branches) >= 2
    return branches


ORACLE_MODULI = _oracle_moduli()
SCALARS = (0, 1, -1, 3, -7, Fraction(-5, 12), Fraction(2**205 + 3, 7), 2**201 + 1)


def _random_poly(rng, length):
    bits = rng.choice((3, 60, 210))
    den = rng.choice((1, 1, 2, 9, 2**70 + 1))
    return Poly([
        Fraction(rng.randint(-2**bits, 2**bits), rng.choice((1, den)))
        for _ in range(length)
    ])


def _operand_polys(rng, branch, count):
    """Zero, units, negative and huge coefficients, and representatives
    of degree up to 2 deg m, which the constructor must reduce."""
    d = branch.degree
    polys = [Poly(), Poly([1]), Poly([-1]), Poly([Fraction(-3, 7)]), Poly([2**201 + 1])]
    polys.append(Poly([-5] * d))
    polys += [_random_poly(rng, rng.randint(1, d)) for _ in range(count)]
    polys.append(_random_poly(rng, 2 * d + 1))
    return polys


def _pair(branch, poly):
    return AlgebraicElement(branch, poly), QuotientOracle(branch, poly)


def _assert_same(kernel, oracle):
    assert isinstance(kernel, AlgebraicElement)
    assert kernel.value == oracle.value
    # normal form: positive denominator coprime to the numerators, no
    # trailing zero
    assert kernel.den > 0 and gcd(kernel.den, *kernel.num) == 1
    assert not kernel.num or kernel.num[-1] != 0


@pytest.mark.parametrize(
    "branch", ORACLE_MODULI, ids=lambda b: f"degree{b.degree}"
)
def test_kernel_matches_the_fraction_oracle(branch):
    rng = random.Random(branch.degree * 1009 + len(branch.modulus.coeffs))
    count = 6 if branch.degree < 40 else 2
    polys = _operand_polys(rng, branch, count)
    pairs = [_pair(branch, poly) for poly in polys]
    for kernel, oracle in pairs:
        _assert_same(kernel, oracle)
        _assert_same(-kernel, -oracle)
        assert AlgebraicElement(branch, oracle.value) == kernel
        assert hash(AlgebraicElement(branch, oracle.value)) == hash(kernel)
        for s in SCALARS:
            _assert_same(kernel + s, oracle + s)
            _assert_same(s + kernel, s + oracle)
            _assert_same(kernel - s, oracle - s)
            _assert_same(s - kernel, s - oracle)
            _assert_same(kernel * s, oracle * s)
            _assert_same(s * kernel, s * oracle)
            assert (kernel == s) == (oracle == s)
            if kernel == s:
                assert hash(kernel) == hash(s)
    for ka, oa in pairs:
        for kb, ob in rng.sample(pairs, 4):
            _assert_same(ka + kb, oa + ob)
            _assert_same(ka - kb, oa - ob)
            _assert_same(ka * kb, oa * ob)
            assert (ka == kb) == (oa == ob)


@pytest.mark.parametrize(
    "branch", [b for b in ORACLE_MODULI if b.degree <= 40],
    ids=lambda b: f"degree{b.degree}",
)
def test_evaluate_matches_the_fraction_oracle(branch):
    rng = random.Random(branch.degree)
    d = branch.degree
    polys = [{}, {0: 1}, {1: 1}, {-1: 1}, {2 * d + 3: -2}, {-2 * d - 3: 5}]
    for _ in range(4):
        polys.append({
            rng.randint(-d - 3, d + 3): rng.randint(-2**65, 2**65)
            for _ in range(rng.randint(1, 6))
        })
    values = QuotientRing(branch).evaluate(polys)
    for kernel, oracle in zip(values, quotient_evaluate_oracle(branch, polys)):
        _assert_same(kernel, oracle)


def test_zero_divisors_split_like_the_oracle():
    # Each entry is a zero divisor on its branch, so the 1 x 1 system
    # splits where the RREF oracle's inverse does, into the same leaves.
    # (t^2 - 4)(t^2 - 9) has four rational roots; the product of two
    # lifted Alexander factors splits into the two.
    quartic = ModulusBranch(Poly([-4, 0, 1]) * Poly([-9, 0, 1]))
    lifted = [
        alexander_via_rep(TwoBridgeFraction(p, q)).monic().inflate(2)
        for p, q in ((5, 2), (7, 3))
    ]
    product = ModulusBranch(lifted[0] * lifted[1])
    cases = [
        (quartic, Poly([-2, 1])),
        (quartic, Poly([-12, 0, 3])),
        (quartic, Poly([Fraction(-9, 2), 0, Fraction(1, 2)])),
        (quartic, Poly([-18, -9, 2, 1])),
        (product, lifted[0]),
        (product, lifted[1] * Poly([Fraction(-2, 3)])),
        (product, lifted[0] * Poly([5, 1])),
    ]
    for branch, poly in cases:
        with pytest.raises(SplitRequired):
            QuotientOracle(branch, poly).inverse()
        rows = [[poly]]
        results = MatrixOverField(rows, QuotientRing(branch)).nullspace()
        assert len(results) >= 2
        assert leaf_records(results) == leaf_records(nullspace_oracle(rows, branch))
        assert _product_of_moduli(results) == branch.modulus


def test_kronecker_slots_at_their_bounds():
    # Every width the ladder gives holds signed values up to
    # 2^(w-1) - 1, the largest a slot of w bits may carry.
    widths = sorted({_slot_width(bits) for bits in range(0, 1200)})
    assert widths[:4] == [48, 64, 96, 128]
    for bits in range(0, 1200):
        width = _slot_width(bits)
        assert width % 8 == 0 and width >= bits + 1
    for width in widths:
        top = 2 ** (width - 1) - 1
        coeffs = [top, -top, 0, -top, top, top, 1, -1, -top]
        assert _unpack(_pack(coeffs, width), width, len(coeffs)) == coeffs
    # Products whose operands sit at those bounds.
    branch = ModulusBranch(Poly([3, -1, 0, 2, 0, 1]))
    for k in (48, 64, 96, 128, 192):
        top = 2 ** (k - 1) - 1
        for poly in (Poly([top, -top, top, -top, top]), Poly([-top, 0, 0, 0, -top])):
            ka, oa = _pair(branch, poly)
            _assert_same(ka * ka, oa * oa)
            _assert_same(ka * (ka + 1), oa * (oa + 1))
