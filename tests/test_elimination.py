"""The exact elimination kernel (polyutil.echelon and the helpers on top of
it) against sympy over Q, and as MatrixK arithmetic over number fields."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as hs

from torusorbits import decomp as dc
from torusorbits import numfield as nf
from torusorbits import polyutil as pu
from torusorbits import rootdata as rd
from torusorbits.errors import Singular
from torusorbits.intervals import RInt

from conftest import random_element

ZERO, ONE = Fraction(0), Fraction(1)
entries = hs.one_of(hs.just(ZERO),
                    hs.fractions(min_value=-5, max_value=5, max_denominator=4))


@hs.composite
def matrices(draw, square=False):
    """Rational matrices up to 6 x 6; half of them are products of an
    nrows x k and a k x ncols matrix, so their rank is at most k."""
    nrows = draw(hs.integers(1, 6))
    ncols = nrows if square else draw(hs.integers(1, 6))
    if not draw(hs.booleans()):
        return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    k = draw(hs.integers(0, min(nrows, ncols)))
    b = [[draw(entries) for _ in range(k)] for _ in range(nrows)]
    c = [[draw(entries) for _ in range(ncols)] for _ in range(k)]
    return [[sum((b[i][t] * c[t][j] for t in range(k)), ZERO)
             for j in range(ncols)] for i in range(nrows)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_sympy(rows):
    ncols = len(rows[0])
    _, pivots, _, _ = pu.echelon(rows, ncols)
    assert len(pivots) == to_sympy(rows).rank()
    # stopping at the first column without a pivot keeps full column rank
    _, head, _, _ = pu.echelon(rows, ncols, stop_at_gap=True)
    assert head == pivots[:len(head)]
    assert (len(head) == ncols) == (len(pivots) == ncols)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_determinant_and_inverse_match_sympy(rows):
    m = to_sympy(rows)
    det = pu.determinant(rows, ZERO)
    assert det == to_fraction(m.det())
    inv = pu.invert(rows, ONE, ZERO)
    if det == 0:
        assert inv is None
    else:
        assert inv == [[to_fraction(x) for x in m.inv().row(i)]
                       for i in range(m.rows)]


@settings(max_examples=150, deadline=None)
@given(matrices(), hs.data())
def test_solve_matches_sympy(rows, data):
    # half of the right-hand sides lie in the column span by construction
    ncols = len(rows[0])
    if data.draw(hs.booleans()):
        x0 = [data.draw(entries) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x0)), ZERO) for row in rows]
    else:
        rhs = [data.draw(entries) for _ in rows]
    m, b = to_sympy(rows), to_sympy([[v] for v in rhs])
    x = pu.solve(rows, rhs, ZERO)
    if m.rank() != m.row_join(b).rank():
        assert x is None
        return
    sol, params = m.gauss_jordan_solve(b)
    expect = sol.subs({p: 0 for p in params})
    assert x == [to_fraction(v) for v in expect]


@settings(max_examples=60, deadline=None)
@given(matrices(square=True))
def test_cofactor_det_matches_the_kernel(rows):
    # the division-free expansion on exact entries and on enclosures
    det = pu.determinant(rows, ZERO)
    assert pu.cofactor_det(rows) == det
    point = pu.cofactor_det([[RInt(x) for x in row] for row in rows])
    assert point.lo == point.hi == det
    eps = Fraction(1, 1000)
    assert pu.cofactor_det([[RInt(x - eps, x + eps) for x in row]
                            for row in rows]).contains(det)


def test_echelon_pivots_and_swap_sign():
    rows = [[ZERO, Fraction(2), ONE], [Fraction(3), ONE, ZERO],
            [Fraction(6), Fraction(4), Fraction(5)]]
    ech, pivots, values, sign = pu.echelon(rows, 3)
    assert pivots == [0, 1, 2]
    assert values == [3, 2, 4] and sign == -1    # one swap
    assert pu.determinant(rows, ZERO) == -24
    assert [ech[r][c] for r, c in enumerate(pivots)] == [ONE] * 3
    assert all(ech[r][c] == 0 for c in range(3) for r in range(c + 1, 3))
    assert rows[0][0] == ZERO            # the input is not modified


@pytest.mark.parametrize("name", ["Ksqrt2", "Kcubic"])
def test_matrix_inverse_and_det_over_fields(name, request):
    K = request.getfixturevalue(name)
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        ident = dc.MatrixK.identity(K, n)
        for _ in range(4):
            a, b = (dc.MatrixK(K, [[random_element(K, rng) for _ in range(n)]
                                   for _ in range(n)]) for _ in range(2))
            assert (a * b).det() == a.det() * b.det()
            if a.det():
                assert a * a.inverse() == ident
                assert a.inverse() * a == ident


@pytest.mark.parametrize("name", ["Ksqrt2", "Kcubic"])
def test_singular_matrix_over_fields(name, request):
    K = request.getfixturevalue(name)
    rng = random.Random(29)
    row = [random_element(K, rng) for _ in range(3)]
    other = [random_element(K, rng) for _ in range(3)]
    c = random_element(K, rng) + K.theta
    h = dc.MatrixK(K, [row, other, [c * x for x in row]])
    assert h.det() == K.zero
    with pytest.raises(Singular):
        h.inverse()
    assert pu.invert(h.rows, K.one, K.zero) is None
    assert dc.block_ldu(h, rd.RootSubset.full(3)) is None


def test_singular_block_with_empty_first_column_needs_no_inverse(
        Ksqrt2, monkeypatch):
    calls = []
    inverse = nf.FieldElement.inverse
    monkeypatch.setattr(nf.FieldElement, "inverse",
                        lambda x: calls.append(x) or inverse(x))
    s = Ksqrt2.theta
    block = [[Ksqrt2.zero, s, Ksqrt2.one], [Ksqrt2.zero, s + 1, s],
             [Ksqrt2.zero, Ksqrt2.one, 3 * s]]
    assert pu.invert(block, Ksqrt2.one, Ksqrt2.zero) is None
    assert pu.determinant(block, Ksqrt2.zero) == Ksqrt2.zero
    assert not calls
    # a rank count goes on past the empty column
    assert len(pu.echelon(block, 3)[1]) == 2
    assert calls


def test_field_element_truth_and_reciprocal(Ksqrt2):
    x = Ksqrt2.element([1, 1])
    assert x and not Ksqrt2.zero
    assert 1 / x == x.inverse() == Ksqrt2.element([-1, 1])
    assert Fraction(2) / x == x.inverse() * 2
