import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import polyutil as pu
from torusorbits.errors import (DivisionByZero, Inconclusive,
                                InvariantViolation, MissingCmStructure, NotMonic,
                                PrecisionExhausted, Reducible,
                                TorusOrbitsError, UnitVerificationFailed,
                                ValidationError, WrongUnitRank)
from torusorbits.intervals import atan2_rint, mpf_to_fraction

from circle_oracle import root_matching_modulus_is_one
from cm_oracle import cm_conjugate
from conftest import (NONCONVERGENT_CUBIC, euclid_inverse, faddeev_leverrier,
                      frac_mul, frac_norm, frac_solve, multipoly_value,
                      random_element, resultant_norm, resultant_norm_f)
from gauss_oracle import determinant, invert, solve


def test_create_field_sqrt2(Ksqrt2):
    assert Ksqrt2.degree == 2
    assert Ksqrt2.n_places == 2
    assert nf.field_norm(Ksqrt2.units[0]) == -1


def test_create_field_cubic_units_verified(Kcubic):
    # oracle: both declared units have integral coordinates and norm +-1,
    # checked through the resultant directly
    for u in Kcubic.units:
        assert u.is_integral()
        assert resultant_norm(u) in (1, -1)
    assert Kcubic.n_places == 3


def test_create_field_rejects_bad_unit():
    with pytest.raises(UnitVerificationFailed):
        nf.create_field([-2, 0, 1], declared_units=[[2]])


def test_create_field_rejects_wrong_rank():
    with pytest.raises(WrongUnitRank):
        nf.create_field([-2, 0, 1], declared_units=[])


def test_create_field_refuses_roots_that_do_not_converge():
    with pytest.raises(PrecisionExhausted):
        nf.create_field(NONCONVERGENT_CUBIC)


@pytest.mark.parametrize("seed", range(10))
def test_create_field_returns_or_refuses_on_large_coefficients(seed):
    """Monic polynomials of degree 2 to 8 with coefficients up to 10^38 (40
    over the ten seeds) give a field or a package error, never mpmath's."""
    rng = random.Random(seed)
    for _ in range(4):
        coeffs = [rng.randint(-10 ** 38, 10 ** 38)
                  for _ in range(rng.randint(2, 8))] + [1]
        try:
            nf.create_field(coeffs)
        except TorusOrbitsError:
            pass


def test_create_field_rejects_nonmonic_and_reducible():
    with pytest.raises(NotMonic):
        nf.create_field([1, 0, 2])
    with pytest.raises(Reducible):
        nf.create_field([1, 2, 1])


def is_reducible(coeffs) -> bool:
    """create_field's verdict on a monic integer polynomial (low to high);
    the units are left out, so an irreducible one stops at the unit rank
    unless that is 0."""
    try:
        nf.create_field(coeffs)
    except Reducible:
        return True
    except WrongUnitRank:
        pass
    return False


def sympy_reducible(coeffs) -> bool:
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return not sympy.Poly(list(reversed(coeffs)), x).is_irreducible


def monic(degree, bound):
    return hs.lists(hs.integers(-bound, bound), min_size=degree,
                    max_size=degree).map(lambda cs: cs + [1])


def times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


IRREDUCIBILITY_DRAWS = hs.one_of(
    hs.integers(1, 8).flatmap(lambda d: monic(d, 6)),
    hs.integers(1, 4).flatmap(lambda d: hs.tuples(
        monic(d, 4), hs.integers(1, 8 - d).flatmap(lambda e: monic(e, 4)))
    ).map(lambda ab: times(*ab)),
    hs.integers(2, 8).flatmap(lambda d: monic(d, 10 ** 12)))


@settings(max_examples=60, deadline=None)
@given(IRREDUCIBILITY_DRAWS)
def test_irreducibility_matches_sympy(coeffs):
    """The verdict from the places' root regions agrees with sympy on small
    monic polynomials, on products of two of them, and on coefficients up
    to 10^12."""
    assert is_reducible(coeffs) == sympy_reducible(coeffs)


def test_irreducibility_refines_past_the_default_places():
    # (x^2 - 2c^2)(x^2 - 3c^2)(x^2 - 5c^2)(x^2 - 7c^2) at c = 2^50: the
    # enclosures of products of four roots near 2^51 hold more than one
    # integer at 128 bits
    c2 = 2 ** 100
    coeffs = [1]
    for a in (2, 3, 5, 7):
        coeffs = times(coeffs, [-a * c2, 0, 1])
    K = nf.NumberField(pu.poly(coeffs), "wide", _validated=True)
    with pytest.raises(Reducible):
        nf._certify_irreducible(K)
    assert max(K._place_cache) > nf.DEFAULT_PRECISION
    assert sympy_reducible(coeffs)


# Reducible modulo every prime, so no small prime certifies the irreducible
# ones: cyclotomic Phi_8, Phi_16, Phi_20 and Phi_24, the Swinnerton-Dyer
# polynomial S_3 of sqrt 2, sqrt 3 and sqrt 5, and the reducible
# Phi_3(x^4) = Phi_3(x^2) Phi_6(x^2).
ALL_PRIMES_REDUCIBLE = {
    "phi8": ([1, 0, 0, 0, 1], False),
    "phi16": ([1, 0, 0, 0, 0, 0, 0, 0, 1], False),
    "phi20": ([1, 0, -1, 0, 1, 0, -1, 0, 1], False),
    "phi24": ([1, 0, 0, 0, -1, 0, 0, 0, 1], False),
    "s3": ([576, 0, -960, 0, 352, 0, -40, 0, 1], False),
    "x8+x4+1": ([1, 0, 0, 0, 1, 0, 0, 0, 1], True),
}


@pytest.mark.parametrize("name", sorted(ALL_PRIMES_REDUCIBLE))
def test_irreducibility_without_a_small_prime(name):
    coeffs, reducible = ALL_PRIMES_REDUCIBLE[name]
    assert is_reducible(coeffs) is reducible
    assert sympy_reducible(coeffs) is reducible


def test_cm_subfield_polynomial_is_checked_exactly():
    # x^2 - 1 vanishes at gen = 1 but is reducible: the characteristic
    # polynomial of 1 is (x - 1)^4, not (x^2 - 1)^2
    cm = dict(subfield_poly=[-1, 0, 1], subfield_gen=[1, 0, 0, 0],
              d=[1, 0, 0, 0], relative_gen=[0, 0, 1, 0])
    with pytest.raises(Reducible):
        nf.create_field([1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]],
                        cm_structure=cm)
    # theta (a primitive 8th root of unity) is no root of x^2 - 2
    cm.update(subfield_poly=[-2, 0, 1], subfield_gen=[0, 1, 0, 0])
    with pytest.raises(ValidationError, match="does not satisfy") as err:
        nf.create_field([1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]],
                        cm_structure=cm)
    assert not isinstance(err.value, Reducible)


def test_mpf_to_fraction_refuses_a_non_finite_float():
    for value in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(PrecisionExhausted):
            mpf_to_fraction(value)


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
    enc = Ksqrt2.normalized_abs(Ksqrt2.element([1, 1]), plus)
    assert enc.contains(Fraction(0)) is False
    assert abs(float(enc.mid) - 2.41421356) < 1e-6
    enc2 = Kgauss.normalized_abs(Kgauss.element([1, 1]), Kgauss.places()[0])
    assert enc2.contains(2)                                 # |1+i|^2 = 2
    enc3 = Ksqrt2.normalized_abs(Ksqrt2.one, plus)
    assert enc3.contains(1)


def test_field_norm(Ksqrt2):
    assert nf.field_norm(Ksqrt2.element([3, 1])) == 7
    assert nf.field_norm(Ksqrt2.element([1, 1])) == -1
    assert nf.field_norm(Ksqrt2.zero) == 0


def test_norm_form_matches_resultant(Ksqrt2, Kcubic, Kzeta8, Kzeta16):
    rng = random.Random(5)
    for K in (Ksqrt2, Kcubic, Kzeta8, Kzeta16):
        form = nf.norm_form(K)
        for _ in range(20):
            x = random_element(K, rng)
            assert multipoly_value(form, x.coeffs) == nf.field_norm(x)


def test_order_discriminant(Ksqrt2, Kcubic, Kzeta8):
    # Z[sqrt 2] has discriminant 8, and a basis scaled by 1/2 and 1/3 has
    # 8 / 36; random rational bases against the oracle's determinant of
    # the trace Gram matrix
    assert nf.order_discriminant(Ksqrt2) == 8
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert nf.order_discriminant(
        Ksqrt2, [Ksqrt2.element([half]), Ksqrt2.element([0, third])]) == \
        Fraction(2, 9)
    rng = random.Random(8)
    for K in (Ksqrt2, Kcubic, Kzeta8):
        basis = [random_element(K, rng) for _ in range(K.degree)]
        gram = [[nf.trace(K, a * b) for b in basis] for a in basis]
        assert nf.order_discriminant(K, basis) == determinant(gram,
                                                              Fraction(0))


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
                e = K.normalized_abs(x, p, max_width=Fraction(1, 2 ** 90))
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
        lhs = Ksqrt2.normalized_abs(x * y, pl, max_width=Fraction(1, 2 ** 70))
        rhs = Ksqrt2.normalized_abs(x, pl, max_width=Fraction(1, 2 ** 80)) * \
            Ksqrt2.normalized_abs(y, pl, max_width=Fraction(1, 2 ** 80))
        assert lhs.overlaps(rhs)


def test_unit_log_vectors_sum_to_zero(Kcubic):
    for u in Kcubic.units:
        total = None
        for p in Kcubic.places():
            lg = Kcubic.log_abs(u, p, target_width=Fraction(1, 2 ** 70))
            total = lg if total is None else total + lg
        assert total.contains(0)


def test_unit_closure_discrete(Ksqrt2):
    rep = nf.unit_closure_classify(Ksqrt2, 0)
    assert rep.classification == "discrete"


def test_unit_closure_positive_reals(Kcubic):
    rep = nf.unit_closure_classify(Kcubic, 0)
    assert rep.classification == "positive_reals"
    assert rep.gap_statistic < 1e-2


def test_gap_statistic_walks_a_bounded_box(monkeypatch):
    # at most 61^3 exponent vectors whatever the number of units: the full
    # box |e| <= 30 up to three units, then the largest box within that
    # budget; the wrapper refuses an over-budget walk before it starts, so
    # the real classifier at a real place of Q(zeta11)^+ (four units)
    # returns in well under a second
    budget, walked = (2 * nf.GAP_BOX + 1) ** 3, []

    def product(*ranges, repeat=1):
        size = math.prod(map(len, ranges)) ** repeat
        assert size <= budget, f"a walk over {size} exponent vectors"
        walked.append(size)
        return itertools.product(*ranges, repeat=repeat)

    K = nf.create_field([1, 3, -3, -4, 1, 1], label="real-zeta11",
                        declared_units=[[0, 1], [-2, 0, 1], [0, -3, 0, 1],
                                        [2, 0, -4, 0, 1]])
    monkeypatch.setattr(nf, "itertools", SimpleNamespace(product=product))
    rep = nf.unit_closure_classify(K, 0)
    assert rep.classification == "positive_reals"
    assert 0 < rep.gap_statistic < 1e-2
    logs = [math.log(p) for p in (2, 3, 5, 7, 11, 13, 17)]
    for k in range(1, 8):
        assert 0 < nf._ray_gap_statistic(logs[:k]) < math.inf
    assert walked == [21 ** 4, 61, 61 ** 2, 61 ** 3, 21 ** 4, 11 ** 5,
                      7 ** 6, 5 ** 7]


def test_unit_closure_circle(Kquartic):
    idx = next(p.index for p in Kquartic.places() if not p.is_real)
    rep = nf.unit_closure_classify(Kquartic, idx)
    assert rep.classification == "circle"


@pytest.fixture(scope="module")
def Kfourth():
    # x^4 - 2, signature (2, 1): theta = i 2^(1/4) at the complex place
    return nf.create_field([-2, 0, 0, 0, 1],
                           declared_units=[[-1, 1, 0, 0], [-1, 0, 1, 0]],
                           label="q-fourth-root-2")


def test_unit_closure_relation_detection_path(Kfourth):
    # x^4 - 2 has signature (2, 1): the complex moduli of the two units
    # satisfy a verified relation ((theta-1)^2 and theta^2-1 share their
    # modulus there), so the projection closes up to the circle; the
    # detection is PSLQ, the acceptance of the relation is exact algebra
    K = Kfourth
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


def test_unit_closure_stable_under_precision(Ksqrt2, Kcubic, Kquartic,
                                             Kspiral, Kquintic, Kzeta7):
    idx = next(p.index for p in Kquartic.places() if not p.is_real)
    for K, place in ((Ksqrt2, 0), (Kcubic, 0), (Kquartic, idx), (Kspiral, 2),
                     (Kquintic, 3), (Kzeta7, 0)):
        a = nf.unit_closure_classify(K, place, precision_bits=128)
        b = nf.unit_closure_classify(K, place, precision_bits=256)
        assert (a.classification, a.relations) == (b.classification,
                                                   b.relations)


@pytest.fixture(scope="module")
def Kspiral():
    # x^4 - x - 1, signature (2, 1): three places, complex place 2
    return nf.create_field([-1, -1, 0, 0, 1], declared_units=[[0, 1], [-1, 1]],
                           label="x4-x-1")


@pytest.fixture(scope="module")
def Kquintic():
    # x^5 - 4x^2 + 1, signature (3, 1): four places, complex place 3
    return nf.create_field([1, 0, -4, 0, 0, 1],
                           declared_units=[[0, -1, -2], [0, -1, -1, 1],
                                           [0, -1]], label="x5-4x2+1")


ZETA7_UNITS = [[1, 1], [1, 1, 1]]          # 1 + z and 1 + z + z^2


@pytest.fixture(scope="module")
def Kzeta7():
    # Q(zeta7) = F(relative_gen), F = Q(z + 1/z) cut out by x^3 + x^2 - 2x - 1
    return nf.create_field(
        [1] * 7, declared_units=ZETA7_UNITS, label="q-zeta7",
        cm_structure=dict(subfield_poly=[-1, -2, 1, 1],
                          subfield_gen=[-1, 0, -1, -1, -1, -1],
                          d=[2, 0, -1, 0, 0, -1],
                          relative_gen=[1, 2, 1, 1, 1, 1]))


def _no_quadratic_or_reciprocal(coeffs):
    """A unit of modulus one at a complex place has its inverse (the
    complex conjugate) among its conjugates, so its minimal polynomial is
    reciprocal.  A reciprocal polynomial of odd degree has the root +-1,
    and one of degree 4 generates a field with the quadratic subfield
    Q(w + 1/w).  A field of prime degree has no subfield but Q, and one
    with Galois group S4 none either; either way no unit but +-1 lies on
    the circle, so the log moduli of independent units are independent."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(coeffs)), x)
    deg = poly.degree()
    return sympy.isprime(deg) or (
        deg == 4 and galois_group(poly)[0].order() == 24)


def _spiral_relation(coeffs, root, units, dps=120):
    """mpmath's PSLQ on the spiral functional of two units, from the root
    found by mpmath.polyroots at dps digits (none of the library's
    enclosures), or None."""
    with mpmath.workdps(dps):
        z = sorted(mpmath.polyroots(list(reversed(coeffs)), maxsteps=200,
                                    extraprec=4 * dps),
                   key=lambda r: (mpmath.im(r) <= 0, mpmath.re(r)))[root]
        vals = [mpmath.polyval(list(reversed(u)), z) for u in units]
        x = [mpmath.log(abs(v)) for v in vals]
        y = [mpmath.arg(v) / (2 * mpmath.pi) for v in vals]
        return mpmath.pslq([x[1], -x[0], -(y[0] * x[1] - y[1] * x[0])],
                           maxcoeff=nf.RELATION_BOUND, maxsteps=10 ** 5)


def test_unit_closure_full_at_three_places(Kspiral):
    # the moduli are dense: theta and theta - 1 are independent and no unit
    # but +-1 lies on the circle (x^4 - x - 1 has Galois group S4); the
    # spiral functional has no relation up to the bound at 120 digits
    pl = Kspiral.places()[2]
    assert not pl.is_real and Kspiral.n_places == 3
    assert _no_quadratic_or_reciprocal([-1, -1, 0, 0, 1])
    assert _spiral_relation([-1, -1, 0, 0, 1], 0, [[0, 1], [-1, 1]]) is None
    rep = nf.unit_closure_classify(Kspiral, 2)
    assert (rep.classification, rep.relations) == ("full", [])


def test_unit_closure_full_past_three_places(Kquintic):
    # four places and three independent units, none of them nor any product
    # on the circle (degree 5 is prime), so the moduli have rank 3 and are
    # dense; no pair of the units has a spiral functional either
    pl = Kquintic.places()[3]
    assert not pl.is_real and Kquintic.n_places == 4
    assert _no_quadratic_or_reciprocal([1, 0, -4, 0, 0, 1])
    units = [[0, -1, -2], [0, -1, -1, 1], [0, -1]]
    for pair in itertools.combinations(units, 2):
        assert _spiral_relation([1, 0, -4, 0, 0, 1], 0, pair) is None
    rep = nf.unit_closure_classify(Kquintic, 3)
    assert (rep.classification, rep.relations) == ("full", [])


def test_unit_closure_refuses_one_relation_past_three_places(Kquintic,
                                                            monkeypatch):
    # one PSLQ search finds at most one relation; three moving units with
    # one relation have moduli of rank 2, or of rank 1 with a second
    # relation, which would be the circle, so the classifier refuses rather
    # than read full from the rank count
    seen = []

    def one_relation(field, moving, pl, precision_bits):
        seen.append(len(moving))
        return [(1, 1, -1)]

    monkeypatch.setattr(nf, "_modulus_relations", one_relation)
    with pytest.raises(Inconclusive, match=r"2 units still move after the "
                       r"relation \(1, 1, -1\) at 4 places"):
        nf.unit_closure_classify(Kquintic, 3)
    assert seen == [3]


def test_unit_closure_refuses_a_spiral_functional(Kspiral, monkeypatch):
    # PSLQ's candidate at the detection bound is not proof of a spiral, and
    # the classifier refuses it rather than report a shape
    pslq = mpmath.pslq
    monkeypatch.setattr(mpmath, "pslq", lambda v, **kw:
                        [3, -1, 14] if len(v) == 3 else pslq(v, **kw))
    with pytest.raises(Inconclusive, match=r"\(3, -1, 14\)"):
        nf.unit_closure_classify(Kspiral, 2)


def test_unit_closure_of_a_cm_field_needs_its_presentation(Kzeta16):
    # Q(zeta16)'s units are a root of unity times a real number at every
    # place, so the image lies on finitely many rays; without the declared
    # presentation is_cm cannot tell, and the classifier refuses
    with pytest.raises(MissingCmStructure):
        nf.unit_closure_classify(Kzeta16, 0)
    K = nf.create_field([1] * 7, declared_units=ZETA7_UNITS)
    with pytest.raises(MissingCmStructure):
        nf.unit_closure_classify(K, 0)


def test_unit_closure_cm_field_rays(Kzeta7):
    # 1 + z = z^(1/2) (z^(1/2) + z^(-1/2)) and 1 + z + z^2 = z (z + 1 + 1/z):
    # at each place z = exp(2 pi i k / 7), each unit's argument is a
    # multiple of pi / 7, so the image lies on 14 rays
    with mpmath.workdps(50):
        for k in (1, 2, 3):
            z = mpmath.expjpi(mpmath.mpf(2 * k) / 7)
            for u in ZETA7_UNITS:
                a = mpmath.arg(mpmath.polyval(list(reversed(u)), z))
                assert abs(a * 7 / mpmath.pi - mpmath.nint(a * 7 / mpmath.pi)
                           ) < mpmath.mpf(10) ** -40
    for place in range(3):
        rep = nf.unit_closure_classify(Kzeta7, place)
        assert rep.classification == "positive_reals"
        assert rep.notes == "CM field: unit moduli fill rays"


def test_modulus_one_exact(Kquartic, Ksqrt2):
    pl = next(p for p in Kquartic.places() if not p.is_real)
    theta = Kquartic.theta
    t = Kquartic.element([2, 0, 2, -1])
    # theta is decided by the separation bound; t = theta + 1/theta is
    # 1 +- sqrt 2, whose conjugates' inverses are not among its conjugates
    assert nf.modulus_is_one(Kquartic, theta, pl) is True
    assert nf.modulus_is_one(Kquartic, t, pl) is False


def test_modulus_one_decides_high_powers_of_theta(Kquartic):
    # theta^150 and theta^200 lie on the circle, where the roots of their
    # characteristic polynomials stop converging and the root-matching
    # oracle raises PrecisionExhausted; the separation bound decides them
    pl = next(p for p in Kquartic.places() if not p.is_real)
    for k in (1, 7, 60, 120, 150, 200, 300, 400):
        assert nf.modulus_is_one(Kquartic, Kquartic.theta ** k, pl) is True


# per field: (numerator, denominator) words on the circle at every complex
# place, then words off it: theta on the circle quartic; zeta and
# (1 + 2 zeta) / (1 + 2 / zeta) in Q(zeta8); (theta - a) / (theta + a) in
# Q(2^(1/4)), where theta is imaginary at the complex place
CIRCLE_WORDS = {
    "Kquartic": ([([0, 1], [1])], [([2, 0, 2, -1], [1]), ([1, 1], [1])]),
    "Kzeta8": ([([0, 1], [1]), ([1, 2], [1, 0, 0, -2])],
               [([1, 1, 0, -1], [1]), ([1, 1], [1])]),
    "Kfourth": ([([-1, 1], [1, 1]), ([-2, 1], [2, 1])],
                [([-1, 1], [1]), ([0, 1], [1])]),
}


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_modulus_one_matches_the_root_matching_oracle(request, data):
    """The separation-bound test against the root-matching oracle, on words
    on the circle, words off it and random elements times words, wherever
    the oracle decides."""
    name = data.draw(hs.sampled_from(sorted(CIRCLE_WORDS)))
    K = request.getfixturevalue(name)
    pl = data.draw(hs.sampled_from([p for p in K.places() if not p.is_real]))
    circle, off = CIRCLE_WORDS[name]
    kind = data.draw(hs.sampled_from(["circle", "word", "random"]))
    x = K.element([data.draw(hs.sampled_from([-1, 1]))])
    for (num, den), span in [(w, 6) for w in circle] + (
            [] if kind == "circle" else [(w, 2) for w in off]):
        e = data.draw(hs.integers(-span, span))
        x = x * (K.element(num) / K.element(den)) ** e
    if kind == "random":
        x = x * K.element(data.draw(hs.lists(
            hs.integers(-3, 3), min_size=K.degree, max_size=K.degree
        ).filter(any)))
    try:
        want = root_matching_modulus_is_one(K, x, pl)
    except PrecisionExhausted:
        assume(False)
    assert nf.modulus_is_one(K, x, pl) is want
    assert want or kind != "circle"


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
        cx = cm_conjugate(Kzeta8, cm, x)
        cy = cm_conjugate(Kzeta8, cm, y)
        assert cm_conjugate(Kzeta8, cm, x * y) == cx * cy
        assert cm_conjugate(Kzeta8, cm, cx) == x


def split_cm_oracle(K, cm, x):
    """The split by solving for the F + relative_gen*F coordinates of x and
    recombining them with field multiplications, and the conjugate
    gamma - relative_gen * delta."""
    fdeg = K.degree // 2
    basis = [cm.subfield_gen ** i for i in range(fdeg)]
    basis += [cm.relative_gen * b for b in basis]
    d = K.degree
    inv = invert([[basis[j].coeffs[i] for j in range(d)] for i in range(d)],
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
    assert cm_conjugate(Kzeta8, cm, x) == conj
    # the F-coordinates against the overdetermined solve in the basis g^i
    gens = [cm.subfield_gen ** i for i in range(2)]
    for y in (x, gamma, delta, gamma + delta):
        want = solve([[g.coeffs[i] for g in gens] for i in range(4)],
                     y.coeffs, Fraction(0))
        assert nf.subfield_coordinates(Kzeta8, cm, y) == want


def test_degenerate_cm_basis_fails_at_field_creation():
    # relative_gen = 0 lies in F = Q, so the basis 1, relative_gen is
    # singular; the field is refused before any split
    with pytest.raises(ValidationError, match="CM basis is degenerate"):
        nf.create_field([1, 0, 1], cm_structure=dict(
            subfield_poly=[0, 1], subfield_gen=[0, 0], d=[0, 0],
            relative_gen=[0, 0]))


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


@pytest.mark.parametrize("name", FIELDS + ["Kzeta16"])
def test_charpoly_matches_faddeev_leverrier(name, request):
    # det(t I - M(x)) by the one cofactor expansion against
    # Faddeev-LeVerrier, the iteration it replaced
    K = request.getfixturevalue(name)

    @settings(max_examples=30, deadline=None)
    @given(element_coeffs(K.degree))
    def check(xc):
        x = K.element(xc)
        assert nf._charpoly(K, x) == faddeev_leverrier(K.mult_matrix(x))

    check()


# -- inverse, quotient and norm from the multiplication matrix --------------------


@pytest.mark.parametrize("name", FIELDS + ["Kzeta16"])
def test_quotient_inverse_and_norm_match_the_oracles(name, request):
    """x / y, 1 / y, y ** -k and the field norm, all from the multiplication
    matrix, against the extended Euclidean inverse and the resultant norm."""
    K = request.getfixturevalue(name)

    @settings(max_examples=25, deadline=None)
    @given(element_coeffs(K.degree), element_coeffs(K.degree),
           hs.integers(1, 3))
    def check(xc, yc, k):
        x, y = K.element(xc), K.element(yc)
        assert nf.field_norm(x) == resultant_norm(x)
        for z in (x, K.zero):
            for op in (lambda: z / K.zero, lambda: 1 / K.zero,
                       lambda: K.zero ** -k, K.zero.inverse):
                with pytest.raises(DivisionByZero):
                    op()
        if y.is_zero():
            return
        y_inv = euclid_inverse(y)
        assert y.inverse() == y_inv
        assert x / y == x * y_inv
        assert 1 / y == y_inv
        assert 3 / y == 3 * y_inv
        assert y ** -k == y_inv ** k

    check()


# -- the integer-vector element against the Fraction oracle -----------------------


def coordinate_entries():
    """Zero, small fractions, and numerators and denominators far beyond
    machine words."""
    return hs.one_of(hs.just(Fraction(0)),
                     hs.fractions(min_value=-50, max_value=50,
                                  max_denominator=20),
                     hs.builds(Fraction, hs.integers(-2 ** 200, 2 ** 200),
                               hs.integers(1, 2 ** 100)))


def assert_lowest_terms(x):
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in (*x.num, x.den))
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1


@pytest.mark.parametrize("name", FIELDS + ["Kzeta16"])
def test_integer_element_matches_the_fraction_oracle(name, request):
    """+, -, *, dot, inverse, /, ** (negative powers too), the norm, == and
    hash of integer numerators over one denominator agree with Fraction
    coordinates, and every result is in lowest terms."""
    K = request.getfixturevalue(name)
    d = K.degree
    coords = hs.lists(coordinate_entries(), min_size=d, max_size=d)
    one = tuple(Fraction(int(i == 0)) for i in range(d))

    def power(a, k):
        if k < 0:
            a, k = frac_solve(K, a, one), -k
        out = one
        for _ in range(k):
            out = frac_mul(K, out, a)
        return out

    @settings(max_examples=25, deadline=None)
    @given(coords, hs.one_of(coords, hs.just([Fraction(0)] * d)),
           hs.lists(hs.tuples(coords, coords), max_size=4), hs.integers(-3, 3))
    def check(xc, yc, pairs, k):
        x, y = K.element(xc), K.element(yc)
        xo, yo = tuple(xc), tuple(yc)
        dot_want = tuple(Fraction(0) for _ in range(d))
        for a, b in pairs:
            dot_want = tuple(s + t for s, t in
                             zip(dot_want, frac_mul(K, tuple(a), tuple(b))))
        results = [
            (x + y, tuple(a + b for a, b in zip(xo, yo))),
            (x - y, tuple(a - b for a, b in zip(xo, yo))),
            (-x, tuple(-a for a in xo)),
            (3 - x, (3 - xo[0],) + tuple(-a for a in xo[1:])),
            (x * Fraction(-2, 3), tuple(a * Fraction(-2, 3) for a in xo)),
            (x * y, frac_mul(K, xo, yo)),
            (K.dot([K.element(a) for a, _ in pairs],
                   [K.element(b) for _, b in pairs]), dot_want),
        ]
        if any(yo):
            results += [(x / y, frac_solve(K, yo, xo)),
                        (y.inverse(), frac_solve(K, yo, one)),
                        (1 / y, frac_solve(K, yo, one)),
                        (y ** k, power(yo, k))]
        else:
            for op in (lambda: x / y, y.inverse, lambda: y ** -1):
                with pytest.raises(DivisionByZero):
                    op()
            results.append((y ** abs(k), power(yo, abs(k))))
        for got, want in results:
            assert_lowest_terms(got)
            assert got.coeffs == want
        assert_lowest_terms(x)
        assert nf.field_norm(x) == frac_norm(K, xo)
        assert (x == y) == (xo == yo)
        again = K.element([str(c) for c in xc])
        assert again == x and hash(again) == hash(x)
        back = (x + y) - y
        assert back == x and hash(back) == hash(x)

    check()


@pytest.mark.parametrize("name", FIELDS + ["Kzeta16"])
def test_equal_elements_built_differently_hash_equal(name, request):
    K = request.getfixturevalue(name)
    d = K.degree
    half = [K.element([Fraction(2, 4)]), K.element(["1/2"]),
            K.from_rational(Fraction(1, 2)), K.one / 2, K.one * K.element(["3/6"]),
            K.element(["1/3"]) + K.element([Fraction(1, 6)]),
            K.theta * K.element(["1/2"]) - K.theta * K.element(["1/2"]) + K.one / 2]
    assert len({hash(h) for h in half}) == 1
    assert all(h == half[0] and h.num == (1,) + (0,) * (d - 1) and h.den == 2
               for h in half)
    for zero in (K.zero, K.theta - K.theta, K.element(["0/7"] * d),
                 K.dot([], []), K.dot([K.theta], [K.zero])):
        assert zero.num == (0,) * d and zero.den == 1
        assert hash(zero) == hash(K.zero)


@settings(max_examples=60, deadline=None)
@given(element_coeffs(2))
def test_norm_from_the_cm_subfield_is_the_root_of_the_field_norm(Kzeta8,
                                                                  coords):
    cm = Kzeta8.cm_structure
    x = sum((c * cm.subfield_gen ** i for i, c in enumerate(coords)),
            Kzeta8.zero)
    assert fm._abs_norm_f(x) == abs(resultant_norm_f(Kzeta8, cm, x))


def test_norm_from_the_cm_subfield_rejects_a_nonsquare_norm(Kzeta8):
    # 1 + zeta8 lies outside F and has norm Phi_8(-1) = 2
    with pytest.raises(InvariantViolation):
        fm._abs_norm_f(Kzeta8.one + Kzeta8.theta)


def test_log_abs_encloses_the_true_value_in_a_fresh_process():
    """In a fresh process the global mpmath precision is 53 bits; the log
    enclosures of theta on the cyclic cubic must still contain a 400-bit
    reference at every place."""
    code = textwrap.dedent("""
        from fractions import Fraction
        import mpmath
        from torusorbits import numfield as nf
        from torusorbits.intervals import mpf_to_fraction
        K = nf.create_field([-1, -3, 0, 1],
                            declared_units=[[0, 1, 0], [-2, 0, 1]])
        for pl in K.places():
            enc = K.log_abs(K.theta, pl, target_width=Fraction(1, 2 ** 80))
            with mpmath.workprec(400):
                root = mpmath.findroot(lambda t: t ** 3 - 3 * t - 1,
                                       pl.approx())
                ref = mpf_to_fraction(mpmath.log(abs(root)))
            print(enc.lo <= ref <= enc.hi, enc.width <= Fraction(1, 2 ** 80))
    """)
    src = str(Path(nf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 6


PRECISION_PROBE = textwrap.dedent("""
    import sys
    from fractions import Fraction
    import tempfile
    from pathlib import Path
    import mpmath
    from mpmath import iv
    from torusorbits import config as cfg
    from torusorbits import numfield as nf
    from torusorbits.cli import main

    def precisions(step):
        print(step, mpmath.mp.prec, iv.prec)

    def fields():
        precisions("start")
        cubic = nf.create_field([-1, -3, 0, 1],
                                declared_units=[[0, 1, 0], [-2, 0, 1]])
        quartic = nf.create_field([1, -2, 1, -2, 1],
                                  declared_units=[[0, 1, 0, 0], [2, 0, 2, -1]])
        precisions("create_field")
        return cubic, quartic

    def classify():
        # x^4 - 2 at its complex place runs the PSLQ relation search
        K = nf.create_field([-2, 0, 0, 0, 1],
                            declared_units=[[-1, 1, 0, 0], [-1, 0, 1, 0]])
        path = Path(tempfile.mkdtemp()) / "field.json"
        cfg.save_field(K, path)
        place = next(p.index for p in K.places() if not p.is_real)
        assert main(["--field", str(path), "--precision", "256", "--out",
                     str(path.with_suffix(".out")), "units", "classify",
                     "--place", str(place)]) == 0
        precisions("units classify")

    if sys.argv[1] == "fields-first":
        cubic, quartic = fields()
        classify()
    else:
        classify()
        cubic, quartic = fields()
    for K in (cubic, quartic):
        for u in K.units:
            for pl in K.places():
                enc = K.log_abs(u, pl, target_width=Fraction(1, 2 ** 100))
                print("enclosure", enc.lo, enc.hi)
    precisions("log_abs")
""")


def test_global_precision_is_untouched_and_order_free():
    """In fresh processes, creating fields and classifying unit closures
    leave mpmath's global precisions at their defaults, and log enclosures
    do not depend on which of them ran first."""
    src = str(Path(nf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    runs = {}
    for order in ("fields-first", "classify-first"):
        proc = subprocess.run([sys.executable, "-c", PRECISION_PROBE, order],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert {tuple(line.split()[-2:]) for line in lines
                if not line.startswith("enclosure")} == {("53", "53")}
        runs[order] = [line for line in lines if line.startswith("enclosure")]
    assert len(runs["fields-first"]) == 2 * 3 + 2 * 3
    assert runs["fields-first"] == runs["classify-first"]


def test_create_field_computes_only_the_default_places():
    """Unit independence needs 2^-40-wide logs, which the 128-bit places
    give; no place is refined further."""
    for poly, units in (([-1, -3, 0, 1], [[0, 1, 0], [-2, 0, 1]]),
                        ([1, -2, 1, -2, 1], [[0, 1, 0, 0], [2, 0, 2, -1]])):
        K = nf.create_field(poly, declared_units=units)
        assert list(K._place_cache) == [nf.DEFAULT_PRECISION]


def test_create_field_isolates_each_polynomial_once():
    """The places at every precision share one Sturm isolation of the
    minimal polynomial, and the complex isolation reuses it; is_cm
    isolates the subfield's roots once."""
    calls = Counter()
    isolate = pu.isolate_real_roots

    def counted(p):
        calls[p] += 1
        return isolate(p)

    with mock.patch.object(pu, "isolate_real_roots", counted):
        K = nf.create_field(
            [1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]],
            cm_structure=dict(subfield_poly=[-2, 0, 1],
                              subfield_gen=[0, 1, 0, -1], d=[1, 0, 0, 0],
                              relative_gen=[0, 0, 1, 0]))
        K.places(256)
        assert calls == {K.min_poly: 1}
        assert nf.is_cm(K)
        assert calls == {K.min_poly: 1, K.cm_structure.subfield_poly: 1}


# -- containment of the certified enclosures ------------------------------------

CONTAINMENT_FIELDS = ("Ksqrt2", "Kcubic", "Kgauss", "Kquartic", "Kzeta8",
                      "Kzeta16")
REFERENCE_BITS = 400
_reference_roots = {}


def _reference_root(K, place):
    """The root of K's minimal polynomial that place isolates, to
    REFERENCE_BITS bits (mpmath, test-only)."""
    if K.min_poly not in _reference_roots:
        with mpmath.workprec(REFERENCE_BITS):
            _reference_roots[K.min_poly] = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / c.denominator
                 for c in reversed(K.min_poly)],
                maxsteps=400, extraprec=2 * REFERENCE_BITS)
    z = place.approx()
    return min(_reference_roots[K.min_poly], key=lambda r: abs(r - z))


def _contains(enc, ref) -> bool:
    """enc contains ref up to the reference's own error, 2^-300 relative."""
    ref = mpf_to_fraction(ref)
    tol = Fraction(1, 2 ** 300) * max(1, abs(ref))
    return enc.lo - tol <= ref <= enc.hi + tol


@settings(max_examples=20, deadline=None)
@given(hs.data())
def test_enclosures_contain_a_high_precision_reference(request, data):
    """embed, normalized_abs and log_abs enclose the 400-bit value at every
    place, at the drawn widths, whichever precision the place caches were
    warmed at first: the fixture field's at 128 bits (create_field), a
    fresh copy's at 256.  Both give the same enclosures.  At a complex
    place, atan2_rint of the embed box, where it is off the branch cut,
    encloses the 400-bit argument too."""
    K = request.getfixturevalue(data.draw(hs.sampled_from(CONTAINMENT_FIELDS)))
    coeffs = data.draw(hs.lists(
        hs.fractions(-50, 50, max_denominator=7), min_size=K.degree,
        max_size=K.degree).filter(any))
    widths = [data.draw(hs.sampled_from(options)) for options in (
        (None, Fraction(1, 2 ** 64), Fraction(1, 2 ** 160)),
        (None, Fraction(1, 2 ** 100)),
        (Fraction(1, 2 ** 60), Fraction(1, 2 ** 200)))]
    fresh = nf.NumberField(K.min_poly, K.label, _validated=True)
    fresh.places(256)
    runs = []
    for F in (K, fresh):
        x = F.element(coeffs)
        run = []
        for bits in (128, 256):
            for pl in F.places(bits):
                root = _reference_root(F, pl)
                emb = F.embed(x, pl, max_width=widths[0])
                nabs = F.normalized_abs(x, pl, max_width=widths[1])
                log = F.log_abs(x, pl, target_width=widths[2])
                with mpmath.workprec(REFERENCE_BITS):
                    z = sum(mpmath.mpf(c.numerator) / c.denominator * root ** i
                            for i, c in enumerate(coeffs))
                    ref = abs(z) if pl.is_real else abs(z) ** 2
                    if pl.is_real:
                        assert _contains(emb, mpmath.re(z))
                    else:
                        assert _contains(emb.re, mpmath.re(z))
                        assert _contains(emb.im, mpmath.im(z))
                    assert _contains(nabs, ref)
                    assert _contains(log, mpmath.log(ref))
                    arg = None
                    if not (pl.is_real or emb.re.hi < 0 and emb.im.contains(0)):
                        arg = atan2_rint(emb.im, emb.re, prec=bits + 64)
                        assert _contains(arg, mpmath.atan2(mpmath.im(z),
                                                           mpmath.re(z)))
                run.append((emb, nabs, log, arg))
        runs.append([repr(v) for v in run])
    assert runs[0] == runs[1]
