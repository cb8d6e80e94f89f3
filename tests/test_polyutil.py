"""Root refinement and certification in integers against the Fraction
arithmetic they replaced: the same exact rationals, bit for bit."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs
from mpmath.libmp import NoConvergence

from torusorbits import polyutil as pu
from torusorbits.errors import PrecisionExhausted
from torusorbits.intervals import CBox, RInt, mpf_to_fraction


def fraction_refine_root(p, iso, max_width):
    """The bisection on Fractions that the integer grid replaced."""
    lo, hi = iso.lo, iso.hi
    flo = pu.peval(p, lo)
    fhi = pu.peval(p, hi)
    if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError("not an isolating interval with a sign change")
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        fm = pu.peval(p, mid)
        if fm == 0:
            eps = (hi - lo) / 1024
            lo, hi = mid - eps, mid + eps
            flo, fhi = pu.peval(p, lo), pu.peval(p, hi)
            continue
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return RInt(lo, hi)


def interval_root_regions(p, bits):
    """root_regions with the Fraction bisection and the disks' radii from
    interval Horner evaluations on point boxes, as before integers."""
    reals = [fraction_refine_root(p, iso, Fraction(1, 2 ** bits))
             for iso in pu.isolate_real_roots(p)]
    n = pu.degree(p)
    npairs = (n - len(reals)) // 2
    if npairs == 0:
        return reals, []
    dp = pu.pderiv(p)
    work = max(80, 2 * bits + 80)
    for _ in range(8):
        with mpmath.workprec(work):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(p)]
            try:
                approx = mpmath.polyroots(coeffs, maxsteps=400, extraprec=120)
            except NoConvergence:
                raise PrecisionExhausted("did not converge") from None
        boxes = []
        for z in approx:
            cplx = isinstance(z, mpmath.mpc)
            re = mpf_to_fraction(z.real if cplx else z)
            im = mpf_to_fraction(z.imag) if cplx else Fraction(0)
            zbox = CBox(RInt(re), RInt(im))
            try:
                ratio = pu.peval(p, zbox).modulus_sq() / \
                    pu.peval(dp, zbox).modulus_sq()
            except ZeroDivisionError:
                boxes = None
                break
            rad = pu._dyadic_sqrt_upper(Fraction(n * n) * ratio.hi, work + 60)
            boxes.append(CBox(RInt(re - rad, re + rad),
                              RInt(im - rad, im + rad)))
        if (boxes is not None and pu._disjoint(boxes)
                and max(b.width for b in boxes) <= Fraction(1, 2 ** bits)):
            upper = [b for b in boxes if b.im.lo > 0]
            if len(upper) == npairs:
                return reals, sorted(upper, key=lambda b: (b.re.mid, b.im.mid))
        work *= 2
    raise PrecisionExhausted("could not be certified")


def exact(regions):
    reals, boxes = regions
    return ([(r.lo, r.hi) for r in reals],
            [(b.re.lo, b.re.hi, b.im.lo, b.im.hi) for b in boxes])


@hs.composite
def squarefree_polys(draw):
    """Squarefree polynomials of degree 1 to 8: small integer or rational
    coefficients, times a rational linear factor half the time."""
    coeff = hs.one_of(hs.integers(-12, 12),
                      hs.fractions(min_value=-6, max_value=6,
                                   max_denominator=8))
    cs = draw(hs.lists(coeff, min_size=2, max_size=8))
    if not cs[-1]:
        cs[-1] = 1
    p = pu.poly(cs)
    if draw(hs.booleans()) and pu.degree(p) < 8:
        root = draw(hs.fractions(min_value=-4, max_value=4, max_denominator=16))
        p = pu.pmul(p, pu.poly([-root, 1]))
    assume(pu.degree(p) >= 1 and pu.degree(pu.pgcd(p, pu.pderiv(p))) == 0)
    return p


@settings(max_examples=25, deadline=None)
@given(squarefree_polys())
# x^3 - x: the root 0 is the first cut point of Sturm's [-2, 2]
@example(pu.poly([0, -1, 0, 1]))
def test_root_regions_match_the_fraction_oracle(p):
    # every real interval and complex box at 64, 128 and 256 bits, as
    # exact rationals; mpmath's approximations are shared by both sides
    roots, cache = mpmath.polyroots, {}

    def polyroots(coeffs, **kw):
        key = (tuple(coeffs), mpmath.mp.prec)
        if key not in cache:
            try:
                cache[key] = roots(coeffs, **kw)
            except NoConvergence as exc:
                cache[key] = exc
        if isinstance(cache[key], NoConvergence):
            raise cache[key]
        return cache[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpmath, "polyroots", polyroots)
        for bits in (64, 128, 256):
            try:
                want = exact(interval_root_regions(p, bits))
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    pu.root_regions(p, bits)
                continue
            assert exact(pu.root_regions(p, bits)) == want


@settings(max_examples=60, deadline=None)
@given(hs.fractions(min_value=-5, max_value=5, max_denominator=9),
       hs.fractions(min_value=Fraction(1, 8), max_value=8,
                    max_denominator=9),
       hs.integers(1, 6), hs.data(), hs.sampled_from([64, 128, 256]))
def test_refine_root_nudges_off_a_root_on_the_grid(lo, w, j, data, bits):
    # a rational root on the bisection grid lo + k w / 2^j of its isolating
    # interval, times a factor with no root there: the nudge, then the
    # same intervals as the Fraction bisection
    k = data.draw(hs.integers(0, 2 ** (j - 1) - 1)) * 2 + 1
    root = lo + k * w / 2 ** j
    other = data.draw(hs.sampled_from([pu.poly([1]), pu.poly([1, 0, 1]),
                                       pu.poly([-(lo + w + 1), 1])]))
    p = pu.pmul(pu.poly([-root, 1]), other)
    iso = RInt(lo, lo + w)
    got = pu.refine_root(p, iso, Fraction(1, 2 ** bits))
    want = fraction_refine_root(p, iso, Fraction(1, 2 ** bits))
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert got.lo < root < got.hi
