import random
from fractions import Fraction

import pytest

from lodehn.polynomials import Poly
from lodehn.quotient import (
    AlgebraicElement,
    MatrixOverField,
    ModulusBranch,
    QuotientRing,
    RationalRing,
    SplitRequired,
)

T2_MINUS_1 = Poly([-1, 0, 1])


def test_invert_zero_divisor_splits():
    branch = ModulusBranch(T2_MINUS_1)
    with pytest.raises(SplitRequired) as err:
        branch.element(Poly([-1, 1])).inverse()
    low, high = err.value.low, err.value.high
    assert {low.modulus, high.modulus} == {Poly([-1, 1]), Poly([1, 1])}
    assert low.modulus * high.modulus == T2_MINUS_1
    assert low.lineage and low.lineage[0].parent == T2_MINUS_1


def test_invert_unit():
    branch = ModulusBranch(Poly([-2, 0, 1]))
    inv = branch.t().inverse()
    assert isinstance(inv, AlgebraicElement)
    assert inv * branch.t() == 1
    assert inv.value == Poly([0, Fraction(1, 2)])


def test_invert_rational_constant():
    branch = ModulusBranch(Poly([-2, 0, 1]))
    assert branch.element(3).inverse() * 3 == 1


def test_invert_zero_rejected():
    branch = ModulusBranch(Poly([-2, 0, 1]))
    with pytest.raises(ZeroDivisionError):
        branch.element(0).inverse()


def test_branch_requires_squarefree():
    with pytest.raises(ValueError):
        ModulusBranch(Poly([1, -2, 1]))
    with pytest.raises(ValueError):
        ModulusBranch(Poly([5]))


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
    for root in (0, 1, 2, 3):
        modulus = modulus * Poly([-root, 1])
    branch = ModulusBranch(modulus)
    t = branch.t()
    rows = [
        [t - 1, branch.element(0)],
        [branch.element(0), (t - 2) * (t - 3)],
    ]
    results = MatrixOverField(rows, QuotientRing(branch)).nullspace()
    assert len(results) >= 2
    assert _product_of_moduli(results) == modulus
    for res in results:
        for record in res.branch.lineage:
            assert record.factor * record.cofactor == record.parent


def test_nullspace_identity_and_zero():
    ring = RationalRing()
    eye = MatrixOverField([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ring)
    assert [(r.rank, r.dim) for r in eye.nullspace()] == [(3, 0)]
    zero = MatrixOverField([[0, 0, 0], [0, 0, 0], [0, 0, 0]], ring)
    assert [(r.rank, r.dim) for r in zero.nullspace()] == [(0, 3)]


def test_nullspace_basis_certificates():
    rng = random.Random(23)
    ring = RationalRing()
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)
        ]
        matrix = MatrixOverField(rows, ring)
        for res in matrix.nullspace():
            assert res.rank + res.dim == 5
            for vec in res.basis:
                assert all(v == 0 for v in matrix.apply(vec))


def test_nullspace_basis_certificates_on_branch():
    modulus = Poly([1, 0, -3, 0, 1])  # t^4 - 3 t^2 + 1
    branch = ModulusBranch(modulus)
    t = branch.t()
    rows = [[t * t - 1, t, branch.element(1)], [t, t, t]]
    matrix = MatrixOverField(rows, QuotientRing(branch))
    for res in matrix.nullspace():
        sub = MatrixOverField(rows, res.ring)
        for vec in res.basis:
            assert all(v.is_zero for v in sub.apply(vec))


def test_nullspace_dim_invariant_under_row_shuffles():
    rng = random.Random(41)
    ring = RationalRing()
    rows = [
        [Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(6)
    ]
    base = MatrixOverField(rows, ring).nullspace()[0].dim
    for _ in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert MatrixOverField(shuffled, ring).nullspace()[0].dim == base


def test_rational_matrix_rejects_bad_entries():
    with pytest.raises(TypeError):
        MatrixOverField([[object()]], RationalRing())


def test_split_required_reports_both_leaves():
    branch = ModulusBranch(T2_MINUS_1)
    with pytest.raises(SplitRequired) as err:
        branch.element(Poly([-1, 1])).inverse()
    assert err.value.low.modulus * err.value.high.modulus == T2_MINUS_1
