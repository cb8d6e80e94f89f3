import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from torusorbits import decomp as dc
from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import polyutil as pu
from torusorbits import strata as st
from torusorbits.errors import (ArityMismatch, CapExceeded,
                                CoefficientsNotInF, DependentFactors,
                                HypothesisFails, NotCm,
                                SingularCoefficientMatrix, WrongPlaceCount)


def f0(K):
    """The coordinate-product form, identical at every place."""
    factors = [[[1 if j == i else 0 for j in range(2)] for i in range(2)]
               for _ in range(K.n_places)]
    return fm.make_form(K, factors)


# -- construction / rationality ------------------------------------------------


def test_make_form_valid(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 1], [1, -1]]])
    assert f.n == 2 and f.m == 2 and f.r == 2


def test_make_form_rejects_dependent(Ksqrt2):
    with pytest.raises(DependentFactors):
        fm.make_form(Ksqrt2, [[[1, 1], [1, 1]], [[1, 0], [0, 1]]])


def test_make_form_three_vars(Kcubic):
    f = fm.make_form(Kcubic, [[[1, 0, 0], [0, 1, 0]]] * 3)
    assert f.n == 3 and f.m == 2


def test_make_form_shape_guards(Ksqrt2):
    with pytest.raises(ArityMismatch):
        fm.make_form(Ksqrt2, [[[1, 0], [0, 1]]])          # one place only
    with pytest.raises(ArityMismatch):
        fm.make_form(Ksqrt2, [[[1, 0], [0, 1]], [[1, 0]]])


def test_is_rational(Ksqrt2):
    same = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 1], [1, -1]]])
    assert fm.is_rational(same)
    diff = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 2], [1, -1]]])
    assert not fm.is_rational(diff)
    lam = Ksqrt2.element([1, 1])
    scaled = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]],
                                   [[lam, lam], [1, -1]]])
    assert fm.is_rational(scaled)


# -- group bridge ----------------------------------------------------------------


def test_form_to_group_f0(Ksqrt2):
    alphas, inp = fm.form_to_group(f0(Ksqrt2))
    assert all(a == Ksqrt2.one for a in alphas)
    assert all(c.is_identity() for c in inp.components)


def test_form_to_group_det_scaling(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 1], [1, -1]]])
    alphas, inp = fm.form_to_group(f)
    assert alphas[0] == Ksqrt2.from_rational(-2)
    assert inp.components[0].det() == Ksqrt2.one
    # identity by expansion is already asserted inside; re-check one value
    z = (Ksqrt2.element([2, 1]), Ksqrt2.one)
    direct = f.value(0, z)
    g = inp.components[0]
    gz = tuple(sum((g.rows[i][j] * z[j] for j in range(2)), Ksqrt2.zero)
               for i in range(2))
    assert alphas[0] * gz[0] * gz[1] == direct


def test_form_to_group_singular(Ksqrt2):
    with pytest.raises((SingularCoefficientMatrix, DependentFactors)):
        f = fm.make_form(Ksqrt2, [[[1, 0], [1, 0]], [[1, 0], [0, 1]]])
        fm.form_to_group(f)


def test_form_to_group_nonrational_gives_open_orbit(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 2], [1, -1]]])
    _, inp = fm.form_to_group(f)
    h = inp.components[0] * inp.components[1].inverse()
    assert not h.is_monomial()
    s = st.enumerate_strata(*inp.components)
    assert len(s.records) > 1
    assert not st.is_orbit_closed(inp)


# -- variable reduction ------------------------------------------------------------


def test_reduce_identity_when_square(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 1], [1, -1]]])
    red, phi = fm.reduce_variables(f)
    assert red is f


def test_reduce_three_to_two(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 0, 0], [0, 1, 0]],
                              [[1, 0, 1], [0, 1, 0]]])
    red, phi = fm.reduce_variables(f, seed=3)
    assert red.n == 2 and red.m == 2
    assert fm._nonproportional_witness(red) is not None
    for v in range(2):
        assert len(pu.echelon(red.factors[v], red.n)[1]) == 2


def test_reduce_hypothesis_fails(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 0, 0], [0, 1, 0]],
                              [[2, 0, 0], [0, 3, 0]]])
    with pytest.raises(HypothesisFails):
        fm.reduce_variables(f)


# -- scans --------------------------------------------------------------------------


def test_scan_values_exact(Ksqrt2):
    f = f0(Ksqrt2)
    sc = fm.scan_values(f, 2)
    assert sc.npoints == 5 ** 4 - 1
    # z = (1,1): value one at every place
    idx = next(i for i in range(sc.npoints)
               if tuple(sc.points[i]) == (1, 0, 1, 0))
    assert all(v == Ksqrt2.one for v in sc.exact_values(idx))
    # z = (1,0): degenerate, flagged
    idx0 = next(i for i in range(sc.npoints)
                if tuple(sc.points[i]) == (1, 0, 0, 0))
    assert bool(sc.degenerate[idx0])
    # z = (1+theta, 1): value 1+theta, numeric images near 2.414 / -0.414
    idx1 = next(i for i in range(sc.npoints)
                if tuple(sc.points[i]) == (1, 1, 1, 0))
    vals = sc.exact_values(idx1)
    assert vals[0] == Ksqrt2.element([1, 1])
    nums = sorted(float(sc.numeric_values(v)[idx1]) for v in range(2))
    assert abs(nums[0] + 0.41421356) < 1e-6
    assert abs(nums[1] - 2.41421356) < 1e-6


def test_scan_cap_and_sampling(Kcubic):
    f = fm.make_form(Kcubic, [[[1, 0], [0, 1]]] * 3)
    with pytest.raises(CapExceeded):
        fm.scan_values(f, 8, cap=10_000)
    sc = fm.scan_values(f, 8, sample=500, seed=1)
    assert sc.npoints == 500 and sc.mode == "sampled"
    # nesting: include merges the previous points first
    sc2 = fm.scan_values(f, 16, sample=200, seed=2, include=sc)
    assert sc2.npoints == 700
    assert np.array_equal(sc2.points[:500], sc.points)


@pytest.mark.parametrize("name,height", [("Ksqrt2", 3), ("Kzeta8", 1)])
def test_scan_numeric_reevaluates_exactly(name, height, request):
    # signed values at real places, squared moduli at complex places
    K = request.getfixturevalue(name)
    rng = random.Random(3)
    f = fm.make_form(K, [[[1, 1], [1, -1]], [[1, 2], [1, -1]]])
    sc = fm.scan_values(f, height)
    places = K.places()
    for v in range(2):
        nums = sc.numeric_values(v)
        for idx in rng.sample(range(sc.npoints), 12):
            exact = sc.exact_values(idx)[v]
            width = Fraction(1, 2 ** 40)
            enc = (K.embed(exact, places[v], max_width=width)
                   if places[v].is_real
                   else K.normalized_abs(exact, places[v], max_width=width))
            assert enc.lo - 1e-9 <= nums[idx] <= enc.hi + 1e-9


# -- density --------------------------------------------------------------------------


def test_density_empty_scan(Kcubic):
    f = fm.make_form(Kcubic, [[[1, 0], [0, 1]]] * 3)
    sc = fm.scan_values(f, 1)
    rep = fm.density_report(sc, window=((90, 95),) * 3, eps=0.25)
    assert rep.coverage == 0.0


def test_density_monotone(Kcubic):
    f = fm.make_form(Kcubic, [[[1, 0], [0, 1]],
                              [[1, 1], [0, 1]],
                              [[1, 0], [1, 1]]])
    sc1 = fm.scan_values(f, 2)
    sc2 = fm.scan_values(f, 3)
    r1 = fm.density_report(sc1, eps=0.5)
    r2 = fm.density_report(sc2, eps=0.5)
    assert r2.coverage >= r1.coverage
    r3 = fm.density_report(sc2, eps=1.0)
    assert r3.coverage >= r2.coverage  # coarser cells, higher fraction


def test_density_full_coverage_toy(Ksqrt2):
    f = f0(Ksqrt2)
    sc = fm.scan_values(f, 4)
    rep = fm.density_report(sc, window=((0.75, 1.25),) * 2, eps=0.5)
    assert rep.cells_total == 1 and rep.cells_hit == 1
    assert rep.coverage == 1.0


# -- spectrum -------------------------------------------------------------------------


def test_spectrum_f0(Ksqrt2):
    sc = fm.scan_values(f0(Ksqrt2), 4)
    rep = fm.two_place_spectrum(sc, clip=10.0)
    assert rep.rational_form and rep.constant == 1
    assert rep.values == [1, 2, 4, 7, 8, 9]   # representable norm products
    assert rep.min_gap == 1.0


def test_spectrum_scaled_constant(Ksqrt2):
    half = Ksqrt2.from_rational(Fraction(1, 2))
    f = fm.make_form(Ksqrt2, [[[1, 0], [0, 1]]] * 2, scalars=[half, half])
    sc = fm.scan_values(f, 3)
    rep = fm.two_place_spectrum(sc, clip=4.0)
    assert rep.constant == Fraction(1, 4)
    assert rep.values[0] == Fraction(1, 4)


def test_spectrum_wrong_place_count(Kcubic):
    f = fm.make_form(Kcubic, [[[1, 0], [0, 1]]] * 3)
    sc = fm.scan_values(f, 1)
    with pytest.raises(WrongPlaceCount):
        fm.two_place_spectrum(sc)


def test_spectrum_empty(Ksqrt2):
    sc = fm.scan_values(f0(Ksqrt2), 1)
    rep = fm.two_place_spectrum(sc, clip=Fraction(1, 2))
    assert rep.values == [] and rep.count_nonzero == 0


@pytest.mark.parametrize("height", [100, 10 ** 5])
def test_spectrum_exact_beyond_float_precision(Kzeta8, height):
    # the norm products pass 2^53 at height 100 and 2^63 at height 10^5;
    # the exact spectrum must still equal the per-point field norms
    f = f0(Kzeta8)
    sc = fm.scan_values(f, height, sample=300, seed=1)
    rep = fm.two_place_spectrum(sc, clip=math.inf)
    want = {abs(nf.fast_norm(Kzeta8, f.value(0, sc.coordinate(i))))
            for i in range(sc.npoints)} - {0}
    assert rep.values == sorted(want) and rep.constant == 1


def test_spectrum_irrational_constant_over_a_denominator(Ksqrt2):
    # scalar sqrt 2 at both places: C is computed numerically, and the
    # factor 1/2 puts the integer norms over the denominator 2^2
    s = Ksqrt2.theta
    f = fm.make_form(Ksqrt2, [[[Fraction(1, 2), 0], [0, 1]]] * 2,
                     scalars=[s, s])
    sc = fm.scan_values(f, 3)
    rep = fm.two_place_spectrum(sc, clip=math.inf)
    want = sorted({abs(nf.fast_norm(Ksqrt2, f.value(0, sc.coordinate(i))))
                   for i in range(sc.npoints)} - {0})
    assert len(rep.values) == len(want)
    for got, w in zip(rep.values, want):
        assert abs(float(got) / float(w) - 1) < 1e-12


def test_numeric_values_beyond_int64(Kzeta8):
    # coefficients times height pass 2^63, where an int64 image wraps
    c = Kzeta8.element([Fraction(12345, 7), 3, 0, 1])
    f = fm.make_form(Kzeta8, [[[c, 0], [0, 1]]] * 2)
    sc = fm.scan_values(f, 2 ** 50, sample=200, seed=1)
    places = Kzeta8.places()
    for v in range(f.r):
        vals = sc.numeric_values(v)
        for i in range(sc.npoints):
            ref = float(nf.normalized_abs(f.value(v, sc.coordinate(i)),
                                          places[v]).mid)
            assert abs(vals[i] / ref - 1) < 1e-9


def _image_bound(K, factors, pts, norm):
    """The a-priori bound of the integer image, from its definition."""
    top = max([1] + [abs(int(x)) for x in pts.ravel()])
    bounds = []
    for fac in factors:
        mats = [K.mult_matrix(c) for c in fac]
        den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
        rows = [[abs(x * den) for m in mats for x in m[t]]
                for t in range(K.degree)]
        bounds.append(top * max(sum(row) for row in rows))
    if not norm:
        return max(bounds)
    csum = sum(abs(c) for c in nf.norm_form(K).terms.values())
    return math.prod(csum * b ** K.degree for b in bounds)


def _image_oracle(K, factors, pts, norm):
    """The same image point by point in Python integers."""
    deg = K.degree
    images, dens = [], []
    for fac in factors:
        mats = [K.mult_matrix(c) for c in fac]
        den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
        images.append([[int(sum(den * m[t][k] * int(row[j * deg + k])
                                for j, m in enumerate(mats) for k in range(deg)))
                        for t in range(deg)] for row in pts])
        dens.append(den)
    if not norm:
        return images, dens
    nform = nf.norm_form(K)
    prods = [math.prod(int(nform.eval_exact(img[p])) for img in images)
             for p in range(len(pts))]
    return prods, math.prod(d ** deg for d in dens)


@hs.composite
def image_cases(draw, K):
    """One or two binary factors and points up to the int64 edge."""
    coef = hs.fractions(min_value=-9, max_value=9, max_denominator=4)
    factors = [tuple(K.element([draw(coef) for _ in range(K.degree)])
                     for _ in range(2))
               for _ in range(draw(hs.integers(1, 2)))]
    k = draw(hs.one_of(hs.integers(0, 3), hs.integers(0, 63)))
    entry = hs.integers(-(2 ** k), 2 ** k - 1)
    if draw(hs.booleans()):
        entry = entry | hs.sampled_from([2 ** 63 - 1, -(2 ** 63)])
    rows = draw(hs.integers(1, 4))
    pts = np.array([[draw(entry) for _ in range(2 * K.degree)]
                    for _ in range(rows)], dtype=np.int64)
    return factors, pts, draw(hs.booleans())


@settings(max_examples=80, deadline=None)
@given(hs.data())
def test_int_image_matches_python_integers(Ksqrt2, Kzeta8, data):
    K = data.draw(hs.sampled_from([Ksqrt2, Kzeta8]))
    factors, pts, norm = data.draw(image_cases(K))
    image, den = fm._int_image(K, factors, pts, norm=norm)
    want, want_den = _image_oracle(K, factors, pts, norm)
    expect = np.int64 if _image_bound(K, factors, pts, norm) < 2 ** 63 else object
    assert den == want_den
    if norm:
        assert image.dtype == expect
        assert [int(x) for x in image] == want
    else:
        image = list(image)
        assert all(img.dtype == expect for img in image)
        assert [[[int(x) for x in row] for row in img.T] for img in image] == want


@pytest.mark.parametrize("norm", [False, True])
def test_int_image_dtype_at_the_int64_edge(Ksqrt2, norm):
    # identity factor over Q(sqrt 2): the bound is max|pts| for the image
    # and 3 * max|pts|^2 for the norm x0^2 - 2 x1^2
    edge = math.isqrt((2 ** 63 - 1) // 3) if norm else 2 ** 63 - 1
    for top, dtype in ((edge, np.int64), (edge + 1, object)):
        pts = np.array([[-top, top - 1, 0, 0], [top - 1, 1, 5, -7]],
                       dtype=np.int64)
        image, _ = fm._int_image(Ksqrt2, [(Ksqrt2.one, Ksqrt2.zero)], pts,
                                 norm=norm)
        got = image if norm else next(image)
        assert got.dtype == dtype
        want = [[int(p[0]), int(p[1])] for p in pts]
        if norm:
            assert [int(x) for x in got] == [a * a - 2 * b * b for a, b in want]
        else:
            assert [[int(x) for x in row] for row in got.T] == want


def test_spectrum_nonrational_path(Ksqrt2):
    f = fm.make_form(Ksqrt2, [[[1, 1], [1, -1]], [[1, 2], [1, -1]]])
    sc = fm.scan_values(f, 2)
    rep = fm.two_place_spectrum(sc, clip=50.0)
    assert not rep.rational_form
    assert rep.count_nonzero > 0
    assert rep.min_value > 0


# -- CM obstruction -----------------------------------------------------------------


def fF(K):
    sqrt2 = K.element([0, 1, 0, -1])
    three = K.element([3])
    return fm.make_form(K, [[[1, sqrt2], [sqrt2, three]]] * 2)


def test_index_l_verification(Kzeta8):
    assert fm.verify_suborder_index(Kzeta8, 2)
    assert not fm.verify_suborder_index(Kzeta8, 1)
    assert not fm.verify_suborder_index(Kzeta8, 3)


def test_cm_rejects_non_cm(Ksqrt2):
    f = f0(Ksqrt2)
    sc = fm.scan_values(f, 1)
    with pytest.raises(NotCm):
        fm.cm_obstruction_check(f, sc, index_l=1)


def test_cm_rejects_coefficients_outside_f(Kzeta8):
    theta = Kzeta8.theta
    inv = theta.inverse()
    bad = fm.make_form(Kzeta8, [[[1, theta], [Kzeta8.zero, inv]]] * 2)
    sc = fm.scan_values(bad, 1)
    with pytest.raises(CoefficientsNotInF):
        fm.cm_obstruction_check(bad, sc, index_l=2)


def test_cm_norm_product_branch(Kzeta8):
    f = f0(Kzeta8)
    sc = fm.scan_values(f, 1)
    rep = fm.cm_obstruction_check(f, sc, index_l=2)
    assert rep.violations == []
    assert rep.constant == Fraction(1, 256)     # |N_F(1)| / l^8
    for p in rep.points:
        if p.branch == "norm-product":
            assert (p.norm_product * 256).denominator == 1
            assert p.norm_product > 0


def test_cm_norm_product_oracle(Kzeta8):
    # independent expansion: the product of the two normalized values equals
    # the field norm of f0(z), and the reported rational is N_F(det)^2
    cm = Kzeta8.cm_structure
    f = f0(Kzeta8)
    sc = fm.scan_values(f, 2, sample=300, seed=12)
    rep = fm.cm_obstruction_check(f, sc, index_l=2)
    by_index = {p.index: p for p in rep.points}
    rng = random.Random(9)
    checked = 0
    for idx in rng.sample(range(sc.npoints), 40):
        p = by_index.get(idx)
        if p is None or p.branch != "norm-product":
            continue
        z = sc.coordinate(idx)
        g1, d1 = nf.split_cm(Kzeta8, cm, z[0])
        g2, d2 = nf.split_cm(Kzeta8, cm, z[1])
        det = g1 * d2 - g2 * d1
        # brute-force norm of det through the resultant route
        from torusorbits import polyutil as pu
        coords = nf.subfield_coordinates(Kzeta8, cm, det)
        npoly = pu.poly(coords)
        if pu.degree(npoly) == 0:
            nfd = npoly[0] ** 2
        else:
            nfd = pu.resultant(cm.subfield_poly, npoly)
        assert p.norm_product == nfd * nfd
        checked += 1
    assert checked > 5


def test_cm_ray_branch(Kzeta8):
    cm = Kzeta8.cm_structure
    rg = cm.relative_gen
    f = f0(Kzeta8)
    # z = gamma + i * (a gamma) with a = 3 and gamma = (1, sqrt2)
    sqrt2 = Kzeta8.element([0, 1, 0, -1])
    z1 = Kzeta8.one + rg * Kzeta8.from_rational(3)
    z2 = sqrt2 + rg * (Kzeta8.from_rational(3) * sqrt2)
    deg = Kzeta8.degree
    pts = np.array([list(z1.coeffs) + list(z2.coeffs),
                    list((rg * Kzeta8.one).coeffs) + list((rg * sqrt2).coeffs)],
                   dtype=np.int64)
    scan = fm.FormScan(f, 10, pts, "full", fm._degenerate_mask(f, pts))
    rep = fm.cm_obstruction_check(f, scan, index_l=2)
    assert rep.violations == []
    branches = [p.branch for p in rep.points]
    assert branches == ["ray", "ray"]
    assert rep.points[0].ray_scalar == (3, 0)
    assert rep.points[1].ray_scalar == ("inf",)


def test_cm_sine_identity_numeric_spotcheck(Kzeta8):
    f = fF(Kzeta8)
    sc = fm.scan_values(f, 4, sample=30, seed=5)
    for idx in range(sc.npoints):
        z = sc.coordinate(idx)
        w = fm.sine_identity_enclosure(Kzeta8, f, z)
        assert w is not None and w < 1e-10


def test_cm_nontrivial_form(Kzeta8):
    f = fF(Kzeta8)
    sc = fm.scan_values(f, 3, sample=400, seed=8)
    rep = fm.cm_obstruction_check(f, sc, index_l=2)
    assert rep.violations == []
    assert rep.checked == 400
