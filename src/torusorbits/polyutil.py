"""Polynomial helpers over the rationals.

Polynomials are tuples of Fractions indexed by degree (low to high).
Provides Sturm-based real root isolation with rational endpoints and one
certified isolation of all roots (root_regions: real intervals and
upper-half-plane boxes), from which numfield decides irreducibility.

Also home to the integer row keys of point batches (row_keys, decoded by
key_rows), which order and deduplicate points with distinct, and to the
package's one row elimination, the fraction-free integer kernel bareiss
with int_determinant and int_solve on top: every determinant and linear
solve over Q goes through it, rows scaled to integers, among them the
inverse, quotient and norm of a field element.  Its one division-free
determinant is laplace_minor, a memoised cofactor expansion over any ring
(field elements, MultiPoly, RInt), with cofactor_det the full-matrix call.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import NoConvergence

from .errors import PrecisionExhausted
from .intervals import CBox, RInt, mpf_to_fraction

Poly = tuple


def poly(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return len(p) == 1 and p[0] == 0


def peval(p: Poly, x):
    """Horner evaluation; works for Fraction, RInt and CBox inputs alike."""
    acc = p[-1]
    if not isinstance(x, (Fraction, int)):
        acc = x * 0 + acc
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    if len(p) == 1:
        return (Fraction(0),)
    return poly(Fraction(i) * c for i, c in enumerate(p) if i > 0)


def pmul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return poly(out)


def pscale(a: Poly, c) -> Poly:
    return poly(Fraction(c) * x for x in a)


def pdivmod(a: Poly, b: Poly):
    if is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db, lb = degree(b), b[-1]
    while len(rem) - 1 >= db and not (len(rem) == 1 and rem[0] == 0):
        k = len(rem) - 1 - db
        f = rem[-1] / lb
        quo[k] = f
        for i in range(len(b)):
            rem[k + i] -= f * b[i]
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
    return poly(quo), poly(rem)


def pgcd(a: Poly, b: Poly) -> Poly:
    while not is_zero(b):
        a, b = b, pdivmod(a, b)[1]
    if a[-1] != 0:
        a = pscale(a, 1 / a[-1])
    return a


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array: np.unique hashes integer
    arrays, many times slower than a sort and a neighbour test."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def row_keys(pts: np.ndarray, bound: int) -> np.ndarray:
    """One integer per row of an integer array with entries in
    [-bound, bound]: the row's digits in base 2*bound + 1, so key order is
    the lexicographic order of the rows.  int64 when (2*bound + 1)^dim <
    2^63, Python-int object arrays otherwise."""
    side = 2 * bound + 1
    dtype = np.int64 if side ** pts.shape[1] < 2 ** 63 else object
    keys = np.zeros(pts.shape[0], dtype=dtype)
    for col in pts.astype(dtype, copy=False).T:
        keys = keys * side + (col + bound)
    return keys


def key_rows(keys: np.ndarray, bound: int, dim: int) -> np.ndarray:
    """The inverse of row_keys: the (N, dim) int64 rows with entries in
    [-bound, bound] whose keys are keys (int64 or Python-int objects)."""
    side = 2 * bound + 1
    rows = np.empty((len(keys), dim), dtype=np.int64)
    # int64 digits go straight into the rows, the quotient into one buffer
    for k in range(dim - 1, -1, -1):
        if keys.dtype == object:
            rows[:, k] = keys % side - bound
        else:
            np.remainder(keys, side, out=rows[:, k])
            rows[:, k] -= bound
        keys = np.floor_divide(keys, side, out=None if k == dim - 1 else keys)
    return rows


def chunks(sizes: np.ndarray, budget: int):
    """Consecutive slices of rows whose sizes sum to at most budget (a row
    larger than budget is a slice of its own)."""
    ends = np.cumsum(np.concatenate([[0], sizes]))
    start = 0
    while start < len(sizes):
        stop = np.searchsorted(ends, ends[start] + budget, side="right") - 1
        stop = max(start + 1, int(stop))
        yield slice(start, stop)
        start = stop


# -- exact elimination --------------------------------------------------------
#
# The one row elimination of the package: fraction-free (Bareiss) forward
# elimination of an integer matrix, with int_determinant and int_solve on
# top.  Rational matrices reach it with their rows scaled to integers: the
# inverse, quotient and norm of a field element (on den(a) M(a)), an
# order's discriminant and the CM basis inverse.  Over a number field,
# determinants, inverses and ranks are read from decomp.MinorTable.  Kept
# apart on purpose: laplace_minor below, the one cofactor expansion,
# division-free: field elements (decomp.MinorTable), symbolic entries (the
# norm form and the characteristic polynomial, through cofactor_det) and
# interval entries, whose enclosures dividing by interval pivots would
# widen.

def bareiss(rows, ncols: int):
    """Fraction-free (Bareiss) forward elimination of a copy of an integer
    matrix, pivoting in the first ncols columns (later columns are carried
    along).  Every division is exact, so the entries stay integers: after
    step k the entries right of and below the pivots are (k + 1) x (k + 1)
    minors of the row-permuted matrix.  Returns (rows, sign), where the
    last pivot times sign is the determinant of the leading ncols x ncols
    block, or None at the first column without a pivot (that block is
    singular).
    """
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(ncols):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        prow = a[k]
        p = prow[k]
        for i in range(k + 1, len(a)):
            row = a[i]
            f = row[k]
            row[k] = 0
            row[k + 1:] = [(x * p - f * y) // prev
                           for x, y in zip(row[k + 1:], prow[k + 1:])]
        prev = p
    return a, sign


def int_determinant(rows) -> int:
    """Determinant of a square integer matrix; zero when it is singular."""
    n = len(rows)
    out = bareiss(rows, n)
    if out is None:
        return 0
    a, sign = out
    return sign * a[n - 1][n - 1]


def int_solve(rows, rhs):
    """The solution x = X / D of the square integer system rows . x = rhs,
    as integer numerators X and a nonzero integer D (plus or minus the
    determinant), or None when rows is singular.

    D x is an integer vector (Cramer's rule), so the back substitution on
    the fraction-free echelon form divides exactly."""
    n = len(rows)
    out = bareiss([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if out is None:
        return None
    a, _ = out
    det = a[n - 1][n - 1]
    xs = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        s = det * row[n] - sum(row[j] * xs[j] for j in range(i + 1, n))
        xs[i] = s // row[i]
    return xs, det


# -- real root isolation (Sturm) ----------------------------------------------

def sturm_chain(p: Poly):
    chain = [p, pderiv(p)]
    while not is_zero(chain[-1]):
        rem = pdivmod(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break
        chain.append(pscale(rem, -1))
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = peval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(p[-1])
    return 1 + max((abs(c) / lc for c in p[:-1]), default=Fraction(0))


def isolate_real_roots(p: Poly):
    """Disjoint rational intervals [a, b], one simple real root in each.

    The polynomial must be squarefree.  Endpoints are never roots.
    """
    chain = sturm_chain(p)
    bound = root_bound(p)
    a, b = -bound, bound         # Cauchy's bound is strict: neither is a root

    def count(lo, hi):
        return _sign_variations(chain, lo) - _sign_variations(chain, hi)

    out = []
    stack = [(a, b, count(a, b))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if peval(p, mid) == 0:
            # nudge the cut point off the root
            mid += (hi - lo) / 64
        kl = count(lo, mid)
        stack.append((lo, mid, kl))
        stack.append((mid, hi, k - kl))
    out.sort()
    return [RInt(lo, hi) for lo, hi in out]


def integer_coefficients(p: Poly):
    """p times the lcm of its coefficients' denominators, as ints."""
    scale = math.lcm(*(c.denominator for c in p))
    return [int(c * scale) for c in p]


def _horner(ints, x: int, y: int, den: int):
    """sum_i c_i (x + i y)^i den^(m - i) over integer coefficients c_0..c_m,
    by Horner's rule on Gaussian integers: (real part, imaginary part)."""
    re, im, power = ints[-1], 0, 1
    for c in reversed(ints[:-1]):
        power *= den
        re, im = re * x - im * y + c * power, re * y + im * x
    return re, im


def refine_root(p: Poly, iso: RInt, max_width: Fraction) -> RInt:
    """Shrink an isolating interval by bisection until it is narrow enough,
    in integers: [lo, hi] = [a, b] / den, den doubling at each cut, and the
    sign of p at m / den that of the homogenised P(m, den)."""
    ints = integer_coefficients(p)

    def sign(num, den):
        v = _horner(ints, num, 0, den)[0]
        return (v > 0) - (v < 0)

    den = math.lcm(iso.lo.denominator, iso.hi.denominator)
    a, b = int(iso.lo * den), int(iso.hi * den)
    slo = sign(a, den)
    if slo * sign(b, den) >= 0:
        raise ValueError("not an isolating interval with a sign change")
    while (b - a) * max_width.denominator > max_width.numerator * den:
        a, b, den = 2 * a, 2 * b, 2 * den
        mid = (a + b) // 2
        s = sign(mid, den)
        if not s:
            # the cut point is the simple root: p has the sign slo below it
            a, b, den = 1024 * mid - (b - a), 1024 * mid + (b - a), 1024 * den
        elif s == slo:
            a = mid
        else:
            b = mid
    return RInt(Fraction(a, den), Fraction(b, den))


# -- root regions ---------------------------------------------------------------

def root_regions(p: Poly, bits: int, isolated=None):
    """Certified regions of every root of a squarefree p, each no wider
    than 2^-bits: the real roots as rational intervals (isolated, the
    Sturm isolation of p, is computed when not given), then the
    upper-half-plane roots as boxes sorted by midpoint, one per conjugate
    pair.

    Certification of a box: around every approximation z the disk of
    radius deg * |p(z)/p'(z)| contains at least one root, so deg pairwise
    disjoint such disks pin down one root each.

    A polynomial whose approximations do not converge within mpmath's step
    budget (non-real roots with coefficients near 10^38 can do this) is
    refused with PrecisionExhausted, not solved: more precision or more
    steps rarely helps there and can cost seconds per call.
    """
    if isolated is None:
        isolated = isolate_real_roots(p)
    target = Fraction(1, 2 ** bits)
    reals = [refine_root(p, iso, target) for iso in isolated]
    n = degree(p)
    npairs = (n - len(reals)) // 2
    if npairs == 0:
        return reals, []
    ints = integer_coefficients(p)
    dints = [i * c for i, c in enumerate(ints)][1:]
    work = max(80, 2 * bits + 80)
    for attempt in range(8):
        with mpmath.workprec(work):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(p)]
            try:
                approx = mpmath.polyroots(coeffs, maxsteps=400, extraprec=120)
            except NoConvergence:
                raise PrecisionExhausted(
                    "complex root approximations did not converge") from None
        boxes = []
        for z in approx:
            re = mpf_to_fraction(z.real) if isinstance(z, mpmath.mpc) else mpf_to_fraction(z)
            im = mpf_to_fraction(z.imag) if isinstance(z, mpmath.mpc) else Fraction(0)
            # |p(z)|^2 / |p'(z)|^2, exactly, over z's common denominator
            den = math.lcm(re.denominator, im.denominator)
            x, y = int(re * den), int(im * den)
            val = sum(t * t for t in _horner(ints, x, y, den))
            der = sum(t * t for t in _horner(dints, x, y, den))
            if not der:
                boxes = None
                break
            rad = _dyadic_sqrt_upper(Fraction(n * n * val, der * den * den),
                                     work + 60)
            boxes.append(CBox(RInt(re - rad, re + rad), RInt(im - rad, im + rad)))
        if (boxes is not None and _disjoint(boxes)
                and max(b.width for b in boxes) <= target):
            upper = [b for b in boxes if b.im.lo > 0]
            if len(upper) == npairs:
                return reals, sorted(upper, key=lambda b: (b.re.mid, b.im.mid))
        work *= 2
    raise PrecisionExhausted("complex roots could not be certified")


def _dyadic_sqrt_upper(x: Fraction, out_bits: int = 100) -> Fraction:
    """A dyadic rational >= sqrt(x) with resolution 2^-out_bits."""
    if x == 0:
        return Fraction(0)
    num = x.numerator << (2 * out_bits)
    den = x.denominator
    r = math.isqrt(-(-num // den) - 1) + 1  # ceil division then ceil sqrt
    return Fraction(r + 1, 1 << out_bits)


def _disjoint(boxes) -> bool:
    for a, b in itertools.combinations(boxes, 2):
        if a.overlaps(b):
            return False
    return True


# -- small multivariate polynomials over Q ------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient, from
    any ring whose zero is falsy (Fractions, number field elements).

    Just enough ring structure to expand determinants symbolically (norm
    forms) and products of linear forms over K, and to evaluate them
    exactly on integer vectors or elementwise on numpy arrays.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = dict(terms or {})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(nvars, {e: Fraction(1)})

    @staticmethod
    def const(nvars: int, c) -> "MultiPoly":
        c = Fraction(c)
        if c == 0:
            return MultiPoly(nvars)
        return MultiPoly(nvars, {tuple([0] * nvars): c})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars, other and {
                e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def eval_int_numpy(self, cols):
        """Elementwise evaluation on numpy integer arrays (one per variable).

        Coefficients must be integers.  The same expressions run on int64
        and on Python-int object arrays: a caller passes int64 only under
        an a-priori bound below 2^63, as forms._int_image does."""
        acc = None
        for e, c in self.terms.items():
            if c.denominator != 1:
                raise ValueError("integer coefficients required")
            t = None
            for col, k in zip(cols, e):
                for _ in range(k):
                    t = col if t is None else t * col
            if t is None:
                t = np.full_like(cols[0], int(c))
            elif c != 1:
                t = t * int(c)
            acc = t if acc is None else acc + t
        return np.zeros_like(cols[0]) if acc is None else acc


def laplace_minor(matrix, rows: int, cols: int, memo: dict, dot):
    """The minor det matrix[rows, cols] of a square matrix (row and column
    index sets as bitmasks of equal size), by Laplace expansion along its
    lowest row: dot(xs, ys) sums the products of the signed nonzero
    entries xs of that row and the minors ys one size smaller.  Division
    free, so it runs on any entries with + - and *.  Every minor is computed
    once, in memo, keyed rows | cols << n, which the caller owns and seeds
    with its ring's one under key 0 (the empty minor)."""
    key = rows | cols << len(matrix)
    m = memo.get(key)
    if m is None:
        r = (rows & -rows).bit_length() - 1
        xs, ys = [], []
        # a zero entry skips the minor it multiplies
        for t, c in enumerate(j for j in range(len(matrix)) if cols >> j & 1):
            x = matrix[r][c]
            if x:
                xs.append(-x if t & 1 else x)
                ys.append(laplace_minor(matrix, rows ^ 1 << r, cols ^ 1 << c,
                                        memo, dot))
        m = memo[key] = dot(xs, ys)
    return m


def cofactor_det(rows):
    """Determinant of a small square matrix: laplace_minor on the full
    index sets, with plain sums of products, for MultiPoly entries (the
    norm form and the characteristic polynomial) and RInt entries (the
    unit-independence minor)."""
    full = (1 << len(rows)) - 1
    return laplace_minor(rows, full, full, {0: 1},
                         lambda xs, ys: sum(map(operator.mul, xs, ys)))
