import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from torusorbits import numfield as nf
from torusorbits.errors import (DivisionByZero, MissingCmStructure, NoUnits,
                                NotMonic, Reducible, UnitVerificationFailed,
                                WrongUnitRank)

from conftest import random_element


def test_create_field_sqrt2(Ksqrt2):
    assert Ksqrt2.degree == 2
    assert Ksqrt2.n_places == 2
    assert nf.field_norm(Ksqrt2.units[0]) == -1


def test_create_field_cubic_units_verified(Kcubic):
    # oracle: both declared units have integral coordinates and norm +-1,
    # checked through the resultant directly
    from torusorbits import polyutil as pu
    for u in Kcubic.units:
        assert u.is_integral()
        r = pu.resultant(Kcubic.min_poly, pu.poly(u.coeffs))
        assert r in (1, -1)
    assert Kcubic.n_places == 3


def test_create_field_rejects_bad_unit():
    with pytest.raises(UnitVerificationFailed):
        nf.create_field([-2, 0, 1], declared_units=[[2]])


def test_create_field_rejects_wrong_rank():
    with pytest.raises(WrongUnitRank):
        nf.create_field([-2, 0, 1], declared_units=[])


def test_create_field_rejects_nonmonic_and_reducible():
    with pytest.raises(NotMonic):
        nf.create_field([1, 0, 2])
    with pytest.raises(Reducible):
        nf.create_field([1, 2, 1])


def test_elem_arithmetic(Ksqrt2, Kcubic):
    t = Ksqrt2.theta
    one = Ksqrt2.one
    assert (one + t) * (t - one) == one            # (1+s)(s-1) = 1
    assert t.inverse() == Ksqrt2.element([0, Fraction(1, 2)])
    assert Kcubic.theta * Kcubic.theta == Kcubic.element([0, 0, 1])
    with pytest.raises(DivisionByZero):
        Ksqrt2.zero.inverse()


def test_compute_places(Ksqrt2, Kgauss, Kcubic):
    ps = Ksqrt2.places()
    assert [p.kind for p in ps] == ["real", "real"]
    assert abs(ps[1].approx() - 1.41421356) < 1e-6
    pg = Kgauss.places()
    assert len(pg) == 1 and pg[0].kind == "complex"
    assert abs(pg[0].approx() - 1j) < 1e-6
    assert [p.kind for p in Kcubic.places()] == ["real"] * 3


def test_normalized_abs(Ksqrt2, Kgauss):
    plus = next(p for p in Ksqrt2.places() if p.approx() > 0)
    enc = nf.normalized_abs(Ksqrt2.element([1, 1]), plus)
    assert enc.contains(Fraction(0)) is False
    assert abs(float(enc.mid) - 2.41421356) < 1e-6
    enc2 = nf.normalized_abs(Kgauss.element([1, 1]), Kgauss.places()[0])
    assert enc2.contains(2)                                 # |1+i|^2 = 2
    enc3 = nf.normalized_abs(Ksqrt2.one, plus)
    assert enc3.contains(1)


def test_field_norm(Ksqrt2):
    assert nf.field_norm(Ksqrt2.element([3, 1])) == 7
    assert nf.field_norm(Ksqrt2.element([1, 1])) == -1
    assert nf.field_norm(Ksqrt2.zero) == 0


def test_norm_form_matches_resultant(Ksqrt2, Kcubic, Kzeta8):
    rng = random.Random(5)
    for K in (Ksqrt2, Kcubic, Kzeta8):
        form = nf.norm_form(K)
        for _ in range(20):
            x = random_element(K, rng)
            assert form.eval_exact(x.coeffs) == nf.field_norm(x)


def test_product_formula(Ksqrt2, Kcubic):
    rng = random.Random(1)
    for K in (Ksqrt2, Kcubic):
        places = K.places()
        for _ in range(50):
            x = random_element(K, rng)
            if x.is_zero():
                continue
            enc = None
            for p in places:
                e = nf.normalized_abs(x, p, max_width=Fraction(1, 2 ** 90))
                enc = e if enc is None else enc * e
            assert enc.contains(abs(nf.field_norm(x)))


def test_normalized_abs_multiplicative(Ksqrt2):
    rng = random.Random(2)
    pl = Ksqrt2.places()[0]
    for _ in range(25):
        x = random_element(Ksqrt2, rng)
        y = random_element(Ksqrt2, rng)
        if x.is_zero() or y.is_zero():
            continue
        lhs = nf.normalized_abs(x * y, pl, max_width=Fraction(1, 2 ** 70))
        rhs = nf.normalized_abs(x, pl, max_width=Fraction(1, 2 ** 80)) * \
            nf.normalized_abs(y, pl, max_width=Fraction(1, 2 ** 80))
        assert lhs.overlaps(rhs)


def test_unit_log_vectors_sum_to_zero(Kcubic):
    for u in Kcubic.units:
        total = None
        for p in Kcubic.places():
            lg = Kcubic.log_abs(u, p, target_width=Fraction(1, 2 ** 70))
            total = lg if total is None else total + lg
        assert total.contains(0)


def test_balance_by_unit(Ksqrt2):
    plus = next(p for p in Ksqrt2.places() if p.approx() > 0)
    u4 = Ksqrt2.element([1, 1]) ** 4
    # already balanced input
    res0 = nf.balance_by_unit(Ksqrt2, [Ksqrt2.one, Ksqrt2.one], m=1, radius=6)
    assert res0.exponents == (0,) and res0.bound < Fraction(101, 100)
    # (1+s)^4 read at both places: the fix is the inverse fourth power
    res = nf.balance_by_unit(Ksqrt2, [u4, u4], m=1, radius=8)
    assert res.exponents == (-4,)
    assert res.bound < Fraction(101, 100)
    res2 = nf.balance_by_unit(Ksqrt2, [u4, u4], m=2, radius=8)
    assert res2.exponents == (-2,)          # xi = u^(2 * -2) = u^-4
    # reported bound is satisfied on re-evaluation
    xi = res.xi
    for i, p in enumerate(Ksqrt2.places()):
        enc = nf.normalized_abs(xi * u4, p, max_width=Fraction(1, 2 ** 70))
        assert enc.hi <= res.bound and 1 / enc.lo <= res.bound


def test_balance_monotone_in_radius(Ksqrt2):
    rng = random.Random(3)
    u = Ksqrt2.element([1, 1])
    for _ in range(6):
        k = rng.randint(1, 9)
        vals = [u ** k, u ** k]
        prev = None
        for radius in (1, 3, 6, 10):
            res = nf.balance_by_unit(Ksqrt2, vals, m=1, radius=radius)
            if prev is not None:
                assert res.bound <= prev + Fraction(1, 10 ** 12)
            prev = res.bound


def test_balance_requires_units(Kgauss):
    with pytest.raises(NoUnits):
        nf.balance_by_unit(Kgauss, [Kgauss.one], m=1)


def test_unit_closure_discrete(Ksqrt2):
    rep = nf.unit_closure_classify(Ksqrt2, 0)
    assert rep.classification == "discrete"


def test_unit_closure_positive_reals(Kcubic):
    rep = nf.unit_closure_classify(Kcubic, 0)
    assert rep.classification == "positive_reals"
    assert rep.gap_statistic < 1e-2


def test_unit_closure_circle(Kquartic):
    idx = next(p.index for p in Kquartic.places() if not p.is_real)
    rep = nf.unit_closure_classify(Kquartic, idx)
    assert rep.classification == "circle"


def test_unit_closure_relation_detection_path():
    # x^4 - 2 has signature (2, 1): the complex moduli of the two units
    # satisfy a verified relation ((theta-1)^2 and theta^2-1 share their
    # modulus there), so the projection closes up to the circle; the
    # detection is PSLQ, the acceptance of the relation is exact algebra
    K = nf.create_field([-2, 0, 0, 0, 1],
                        declared_units=[[-1, 1, 0, 0], [-1, 0, 1, 0]],
                        label="q-fourth-root-2")
    idx = next(p.index for p in K.places() if not p.is_real)
    rep = nf.unit_closure_classify(K, idx)
    assert rep.classification == "circle"
    assert rep.relations, "the modulus relation should be detected"
    w = K.one
    for u, e in zip([u for u in K.units
                     if not nf.modulus_is_one(K, u, K.places()[idx])],
                    rep.relations[0]):
        w = w * u ** int(e)
    assert nf.modulus_is_one(K, w, K.places()[idx])


def test_unit_closure_stable_under_precision(Ksqrt2, Kcubic, Kquartic):
    idx = next(p.index for p in Kquartic.places() if not p.is_real)
    for K, place in ((Ksqrt2, 0), (Kcubic, 0), (Kquartic, idx)):
        a = nf.unit_closure_classify(K, place, precision_bits=128)
        b = nf.unit_closure_classify(K, place, precision_bits=256)
        assert a.classification == b.classification


def test_modulus_one_exact(Kquartic, Ksqrt2):
    pl = next(p for p in Kquartic.places() if not p.is_real)
    theta = Kquartic.theta
    t = Kquartic.element([2, 0, 2, -1])
    assert nf.modulus_is_one(Kquartic, theta, pl) is True
    assert nf.modulus_is_one(Kquartic, t, pl) is False
    assert nf.is_root_of_unity(Kquartic, theta) is False
    assert nf.is_root_of_unity(Kquartic, -Kquartic.one) is True


def test_is_cm(Ksqrt2, Kcubic, Kzeta8, Kgauss):
    assert nf.is_cm(Kzeta8) is True
    assert nf.is_cm(Ksqrt2) is False
    assert nf.is_cm(Kcubic) is False
    assert nf.is_cm(Kgauss) is True        # imaginary quadratic, F = Q
    K4 = nf.create_field([1, -2, 1, -2, 1],
                         declared_units=[[0, 1, 0, 0], [2, 0, 2, -1]])
    assert nf.is_cm(K4) is False           # has real places


def test_is_cm_needs_structure():
    # totally imaginary quartic without a declared presentation
    K = nf.create_field([1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]])
    with pytest.raises(MissingCmStructure):
        nf.is_cm(K)


def test_pell_helper():
    assert nf.pell_fundamental_unit(2) == (1, 1)
    assert nf.pell_fundamental_unit(3) == (2, 1)
    a, b = nf.pell_fundamental_unit(61)
    assert a * a - 61 * b * b in (1, -1)


def test_split_cm_roundtrip(Kzeta8):
    rng = random.Random(4)
    cm = Kzeta8.cm_structure
    for _ in range(20):
        x = random_element(Kzeta8, rng)
        g, d = nf.split_cm(Kzeta8, cm, x)
        assert g + cm.relative_gen * d == x
        assert nf.subfield_coordinates(Kzeta8, cm, g) is not None
        assert nf.subfield_coordinates(Kzeta8, cm, d) is not None


def test_cm_conjugate_is_automorphism(Kzeta8):
    rng = random.Random(6)
    cm = Kzeta8.cm_structure
    for _ in range(15):
        x = random_element(Kzeta8, rng)
        y = random_element(Kzeta8, rng)
        cx = nf.cm_conjugate(Kzeta8, cm, x)
        cy = nf.cm_conjugate(Kzeta8, cm, y)
        assert nf.cm_conjugate(Kzeta8, cm, x * y) == cx * cy
        assert nf.cm_conjugate(Kzeta8, cm, cx) == x


def split_cm_oracle(K, cm, x):
    """The split by solving for the F + relative_gen*F coordinates of x and
    recombining them with field multiplications, and the conjugate
    gamma - relative_gen * delta."""
    from torusorbits import polyutil as pu
    fdeg = pu.degree(cm.subfield_poly)
    basis = [cm.subfield_gen ** i for i in range(fdeg)]
    basis += [cm.relative_gen * b for b in basis]
    d = K.degree
    inv = pu.invert([[basis[j].coeffs[i] for j in range(d)] for i in range(d)],
                    Fraction(1), Fraction(0))
    coords = [sum(inv[i][j] * x.coeffs[j] for j in range(d)) for i in range(d)]
    gamma = sum((K.from_rational(coords[i]) * basis[i] for i in range(fdeg)),
                K.zero)
    delta = sum((K.from_rational(coords[fdeg + i]) * basis[i]
                 for i in range(fdeg)), K.zero)
    return gamma, delta, gamma - cm.relative_gen * delta


@settings(max_examples=150, deadline=None)
@given(hs.data())
def test_split_cm_matches_solved_coordinates(Kzeta8, data):
    cm = Kzeta8.cm_structure
    x = Kzeta8.element(data.draw(element_coeffs(Kzeta8.degree)))
    gamma, delta, conj = split_cm_oracle(Kzeta8, cm, x)
    assert nf.split_cm(Kzeta8, cm, x) == (gamma, delta)
    assert nf.cm_conjugate(Kzeta8, cm, x) == conj


FIELDS = ["Ksqrt2", "Kcubic", "Kgauss", "Kquartic", "Kzeta8"]


def element_coeffs(degree):
    return hs.lists(hs.fractions(min_value=-50, max_value=50,
                                 max_denominator=20),
                    min_size=degree, max_size=degree)


@pytest.mark.parametrize("name", FIELDS)
def test_float_embed_within_one_ulp(name, request):
    K = request.getfixturevalue(name)
    places = K.places()
    for pl in places:
        basis = K.float_basis(pl)
        assert basis.dtype == (np.float64 if pl.is_real else np.complex128)
        assert list(basis) == [K.float_embed(K.theta ** t, pl)
                               for t in range(K.degree)]

    @settings(max_examples=60, deadline=None)
    @given(element_coeffs(K.degree))
    def check(coeffs):
        x = K.element(coeffs)
        for pl in places:
            f, enc = K.float_embed(x, pl), K.embed(x, pl)
            parts = ([(f, enc)] if pl.is_real
                     else [(f.real, enc.re), (f.imag, enc.im)])
            for val, iv in parts:
                ulp = Fraction(math.ulp(val))
                assert iv.lo - ulp <= Fraction(val) <= iv.hi + ulp

    check()


@pytest.mark.parametrize("name", FIELDS)
def test_mult_matrix_and_charpoly(name, request):
    K = request.getfixturevalue(name)
    d = K.degree

    @settings(max_examples=40, deadline=None)
    @given(element_coeffs(d), element_coeffs(d))
    def check(xc, yc):
        x, y = K.element(xc), K.element(yc)
        M = K.mult_matrix(x)
        assert [sum(M[i][t] * y.coeffs[t] for t in range(d))
                for i in range(d)] == list((x * y).coeffs)
        acc = K.zero
        for c in reversed(nf._charpoly(K, x)):
            acc = acc * x + c
        assert acc.is_zero()

    check()
