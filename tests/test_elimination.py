"""Determinants, inverses and ranks against sympy over Q: the fraction-free
integer kernel (polyutil.bareiss) on rows scaled to integers, and MatrixK
and decomp.rows_independent, read from the table of minors, over Q(sqrt 2)
with rational entries.  The Gaussian elimination oracle of the tests
(gauss_oracle) is checked on the same draws."""

import math
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
from torusorbits.errors import Singular, TooLarge
from torusorbits.intervals import RInt

from conftest import cofactor_recursion, random_element
from gauss_oracle import determinant, echelon, invert, solve

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


def scaled(rows):
    """The rows scaled to integers, and the scale of each row."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return ([[x.numerator * (s // x.denominator) for x in row]
             for row, s in zip(rows, scales)], scales)


def int_inverse(rows):
    """The inverse of a rational matrix A = diag(1/s) N from int_solve on
    the columns of the identity: A^-1 = N^-1 diag(s), or None."""
    ints, scales = scaled(rows)
    n = len(rows)
    cols = []
    for k in range(n):
        sol = pu.int_solve(ints, [int(i == k) for i in range(n)])
        if sol is None:
            return None
        xs, det = sol
        cols.append([Fraction(x * scales[k], det) for x in xs])
    return [list(row) for row in zip(*cols)]


def over(K, rows):
    return [[K.from_rational(x) for x in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_matches_sympy(Ksqrt2, rows):
    ncols = len(rows[0])
    rank = to_sympy(rows).rank()
    # the oracle's rank, and its stop at the first column without a pivot
    _, pivots, _, _ = echelon(rows, ncols)
    assert len(pivots) == rank
    _, head, _, _ = echelon(rows, ncols, stop_at_gap=True)
    assert head == pivots[:len(head)]
    assert (len(head) == ncols) == (len(pivots) == ncols)
    # the minors' rank test on at most as many rows as columns
    if len(rows) > ncols:
        rows = [list(col) for col in zip(*rows)]
    assert dc.rows_independent(Ksqrt2, over(Ksqrt2, rows)) == (rank == len(rows))


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_determinant_and_inverse_match_sympy(Ksqrt2, rows):
    m = to_sympy(rows)
    det = to_fraction(m.det())
    inv = (None if det == 0 else
           [[to_fraction(x) for x in m.inv().row(i)] for i in range(m.rows)])
    # the integer kernel on the rows scaled to integers
    ints, scales = scaled(rows)
    assert Fraction(pu.int_determinant(ints), math.prod(scales)) == det
    assert int_inverse(rows) == inv
    # the table of minors over Q(sqrt 2)
    h = dc.MatrixK(Ksqrt2, over(Ksqrt2, rows))
    assert h.det() == Ksqrt2.from_rational(det)
    if inv is None:
        with pytest.raises(Singular):
            h.inverse()
    else:
        assert h.inverse().rows == tuple(map(tuple, over(Ksqrt2, inv)))
    # the oracle
    assert determinant(rows, ZERO) == det
    assert invert(rows, ONE, ZERO) == inv


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
    x = solve(rows, rhs, ZERO)
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
    ints, scales = scaled(rows)
    det = Fraction(pu.int_determinant(ints), math.prod(scales))
    assert pu.cofactor_det(rows) == det
    point = pu.cofactor_det([[RInt(x) for x in row] for row in rows])
    assert point.lo == point.hi == det
    eps = Fraction(1, 1000)
    assert pu.cofactor_det([[RInt(x - eps, x + eps) for x in row]
                            for row in rows]).contains(det)


@hs.composite
def ring_matrices(draw):
    """Square matrices up to 6 x 6 over one ring: Fractions (many of them
    zero), linear MultiPolys in two variables, or RInts with rational
    endpoints (some of them the point zero)."""
    n = draw(hs.integers(1, 6))
    kind = draw(hs.sampled_from(["fraction", "multipoly", "rint"]))

    def entry():
        a = draw(entries)
        if kind == "fraction":
            return a
        if kind == "rint":
            return RInt(a, a + draw(hs.fractions(0, 2, max_denominator=4)))
        coeffs = (a, draw(entries), draw(entries))
        return pu.MultiPoly(2, {e: c for e, c in zip(((0, 0), (1, 0), (0, 1)),
                                                     coeffs) if c})

    return [[entry() for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(ring_matrices())
def test_cofactor_expansion_matches_the_recursion(rows):
    # the memoised expansion along the lowest row against the unmemoised
    # recursion it replaced: the same value, and on enclosures the same
    # endpoints, since the memo shares minors without reordering any sum
    det, expect = pu.cofactor_det(rows), cofactor_recursion(rows)
    if isinstance(expect, RInt):
        assert (det.lo, det.hi) == (expect.lo, expect.hi)
    elif isinstance(expect, pu.MultiPoly):
        assert det.terms == expect.terms
    else:
        assert det == expect


def test_echelon_pivots_and_swap_sign():
    rows = [[ZERO, Fraction(2), ONE], [Fraction(3), ONE, ZERO],
            [Fraction(6), Fraction(4), Fraction(5)]]
    ech, pivots, values, sign = echelon(rows, 3)
    assert pivots == [0, 1, 2]
    assert values == [3, 2, 4] and sign == -1    # one swap
    assert determinant(rows, ZERO) == -24
    assert pu.int_determinant([[0, 2, 1], [3, 1, 0], [6, 4, 5]]) == -24
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
            assert a.det() == determinant(a.rows, K.zero)
            if a.det():
                assert a * a.inverse() == ident
                assert a.inverse() * a == ident
                assert a.inverse().rows == tuple(
                    map(tuple, invert(a.rows, K.one, K.zero)))


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
    assert invert(h.rows, K.one, K.zero) is None
    assert not dc.rows_independent(K, h.rows)
    assert dc.rows_independent(K, h.rows[:2])
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
    # the table reads a zero determinant without dividing
    h = dc.MatrixK(Ksqrt2, block)
    assert h.det() == Ksqrt2.zero
    with pytest.raises(Singular):
        h.inverse()
    assert not dc.rows_independent(Ksqrt2, block)
    assert not calls
    # so does the oracle, stopping at the empty column
    assert invert(block, Ksqrt2.one, Ksqrt2.zero) is None
    assert determinant(block, Ksqrt2.zero) == Ksqrt2.zero
    assert not calls
    # a rank count goes on past the empty column
    assert len(echelon(block, 3)[1]) == 2
    assert calls


def test_more_than_the_cap_is_refused_before_any_minor(Ksqrt2, monkeypatch):
    # det, inverse and the rank test inherit the table's cap on n
    def minor(*args):
        raise AssertionError("a minor was computed")

    monkeypatch.setattr(dc.MinorTable, "minor", minor)
    n = dc.MINOR_TABLE_CAP + 1
    h = dc.MatrixK.identity(Ksqrt2, n)
    for call in (h.det, h.inverse,
                 lambda: dc.rows_independent(Ksqrt2, h.rows[:2])):
        with pytest.raises(TooLarge):
            call()


def test_field_element_truth_and_reciprocal(Ksqrt2):
    x = Ksqrt2.element([1, 1])
    assert x and not Ksqrt2.zero
    assert 1 / x == x.inverse() == Ksqrt2.element([-1, 1])
    assert Fraction(2) / x == x.inverse() * 2
