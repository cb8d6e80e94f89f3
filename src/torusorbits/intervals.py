"""Certified interval arithmetic with exact rational endpoints.

All enclosures used by the package are closed intervals [lo, hi] with
Fraction endpoints, so the ring operations introduce no rounding at all;
width is controlled purely by how tightly the inputs were isolated.
Transcendental functions (log, arg) go through mpmath's interval context
and come back as rational enclosures, since binary floats are exact
rationals.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import iv
from mpmath.ctx_mp import PrecisionManager

from .errors import PrecisionExhausted


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational from {x!r}")


def mpf_to_fraction(x) -> Fraction:
    """Exact value of an mpmath float (binary floats are dyadic rationals)."""
    return _raw_to_fraction(x._mpf_)


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of a raw mpmath float tuple (sign, mantissa, exponent,
    bit count), as an mpf's _mpf_ or either endpoint of an interval's _mpi_."""
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise PrecisionExhausted(f"non-finite float {raw}")
    val = Fraction(man, 1) * (Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** (-exp)))
    return -val if sign else val


class RInt:
    """Closed interval over the rationals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = _frac(lo)
        hi = lo if hi is None else _frac(hi)
        if hi < lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- structure --

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self):
        return f"RInt({self.lo}, {self.hi})"

    def contains(self, x) -> bool:
        x = _frac(x)
        return self.lo <= x <= self.hi

    def overlaps(self, other: "RInt") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    # -- arithmetic --

    def __neg__(self):
        return RInt(-self.hi, -self.lo)

    def __add__(self, other):
        other = as_rint(other)
        return RInt(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_rint(other))

    def __mul__(self, other):
        other = as_rint(other)
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return RInt(min(c), max(c))

    __rmul__ = __mul__

    def inverse(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return RInt(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * as_rint(other).inverse()

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RInt(0, max(-self.lo, self.hi))

    def square(self):
        if self.lo >= 0:
            return RInt(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RInt(self.hi * self.hi, self.lo * self.lo)
        return RInt(0, max(self.lo * self.lo, self.hi * self.hi))


def as_rint(x) -> RInt:
    if isinstance(x, RInt):
        return x
    return RInt(_frac(x))


class CBox:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = as_rint(re)
        self.im = as_rint(im)

    def __repr__(self):
        return f"CBox({self.re}, {self.im})"

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def mid(self) -> complex:
        return complex(float(self.re.mid), float(self.im.mid))

    def __add__(self, other):
        other = as_cbox(other)
        return CBox(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_cbox(other)
        return CBox(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def modulus_sq(self) -> RInt:
        return self.re.square() + self.im.square()

    def overlaps(self, other: "CBox") -> bool:
        return self.re.overlaps(other.re) and self.im.overlaps(other.im)


def as_cbox(x) -> CBox:
    if isinstance(x, CBox):
        return x
    return CBox(as_rint(x), RInt(0))


# -- bridge to mpmath's interval context for transcendental enclosures -------

def _iv_workprec(prec: int):
    """A with block in which iv's precision is prec, restored after it: the
    interval context's counterpart of mpmath.workprec, which it lacks."""
    return PrecisionManager(iv, lambda _: prec, None)


def _to_iv(r: RInt):
    """An iv interval containing r, at the interval context's precision."""
    lo = iv.mpf(r.lo.numerator) / iv.mpf(r.lo.denominator)
    hi = iv.mpf(r.hi.numerator) / iv.mpf(r.hi.denominator)
    return iv.mpf([lo.a, hi.b])


def _from_iv(x) -> RInt:
    """The exact endpoints of an mpmath interval.  They are read from the
    raw _mpi_ tuples: passing them through mpf would round them to the
    global mp.prec and could cut the enclosure short of the true value."""
    lo, hi = x._mpi_
    return RInt(_raw_to_fraction(lo), _raw_to_fraction(hi))


def log_rint(r: RInt, prec: int = 256) -> RInt:
    """Certified enclosure of log over a strictly positive interval."""
    if r.lo <= 0:
        raise ValueError("log needs a strictly positive interval")
    with _iv_workprec(prec):
        return _from_iv(iv.log(_to_iv(r)))


def atan2_rint(y: RInt, x: RInt, prec: int = 256) -> RInt:
    """Certified enclosure of atan2 over a box that avoids the branch cut;
    mpmath rounds its ends twice (a point box gives a point), so pad them."""
    if x.hi < 0 and y.contains(0):
        raise ValueError("argument box straddles the branch cut")
    pad = Fraction(16, 2 ** prec)
    with _iv_workprec(prec):
        return _from_iv(iv.atan2(_to_iv(y), _to_iv(x))) + RInt(-pad, pad)


def pi_rint(prec: int = 256) -> RInt:
    with _iv_workprec(prec):
        return _from_iv(iv.pi)
