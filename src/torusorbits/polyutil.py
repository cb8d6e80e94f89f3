"""Polynomial helpers over the rationals.

Polynomials are tuples of Fractions indexed by degree (low to high).
Provides Sturm-based real root isolation with rational endpoints, certified
complex root boxes, resultants via Sylvester determinants, and an exact
irreducibility test for monic integer polynomials of small degree.

Also home to the package's one exact elimination kernel (echelon, with
reduce_above, determinant, invert and solve on top), generic over
Fraction and FieldElement entries: every rank, determinant, inverse and
linear solve over Q or a number field goes through it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

from .errors import PrecisionExhausted, Reducible
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


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n))


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


def reversed_poly(p: Poly) -> Poly:
    return poly(reversed(p))


# -- exact elimination --------------------------------------------------------
#
# The one Gaussian elimination of the package.  Entries are Fractions or
# FieldElements: the kernel uses only +, -, *, 1 / x and the truth value
# (nonzero), so it runs unchanged over Q and over a number field.  Kept
# apart on purpose: decomp.block_ldu (no pivoting, a vanishing minor is its
# answer), dynamics._ldl (symmetric fraction-free LDL of a float Gram
# matrix's exact integer image, with a positivity test), cofactor_det
# below (division-free: symbolic entries, and interval entries, whose
# enclosures dividing by interval pivots would widen) and
# numfield._charpoly (not an elimination).

def echelon(rows, ncols: int, stop_at_gap: bool = False):
    """Row echelon form of a copy of rows, pivoting in the first ncols
    columns (later columns, such as an augmented right-hand side, are
    carried along).

    Each pivot is the first nonzero entry at or below the current row; its
    row is scaled so the pivot is 1 and the entries below it are cleared.
    Returns (rows, pivots, values, sign): pivots[r] is the pivot column of
    row r, so the rank is len(pivots); values[r] is that pivot's original
    value and sign the sign of the row swaps, so a square matrix of full
    rank has determinant sign * prod(values).  With stop_at_gap the
    elimination returns at the first column without a pivot, where a
    square matrix is already known to be singular.
    """
    a = [list(r) for r in rows]
    pivots = []
    values = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            if stop_at_gap:
                break
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        values.append(p)
        inv = 1 / p
        prow = [inv * y if y else y for y in a[r][c:]]
        a[r][c:] = prow
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f:
                a[i][c:] = [x - f * y if y else x
                            for x, y in zip(a[i][c:], prow)]
        pivots.append(c)
    return a, pivots, values, sign


def reduce_above(rows, pivots):
    """Clear the entries above the pivots of an echelon form, in place and
    without further scaling: the reduced row echelon form."""
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        prow = rows[r][c:]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i][c:] = [x - f * y if y else x
                               for x, y in zip(rows[i][c:], prow)]
    return rows


def determinant(rows, zero):
    """Determinant of a square matrix; zero when it is singular."""
    _, pivots, values, sign = echelon(rows, len(rows), stop_at_gap=True)
    if len(pivots) < len(rows):
        return zero
    det = math.prod(values[1:], start=values[0])
    return det if sign > 0 else -det


def invert(rows, one, zero):
    """Inverse of a square matrix as a list of rows, or None if singular."""
    n = len(rows)
    aug = [list(row) + [one if j == i else zero for j in range(n)]
           for i, row in enumerate(rows)]
    a, pivots, _, _ = echelon(aug, n, stop_at_gap=True)
    if len(pivots) < n:
        return None
    return [row[n:] for row in reduce_above(a, pivots)]


def solve(rows, rhs, zero):
    """A solution x of rows . x = rhs, with every free unknown zero, or
    None when the system is inconsistent."""
    ncols = len(rows[0])
    a, pivots, _, _ = echelon([list(row) + [b] for row, b in zip(rows, rhs)],
                              ncols)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    reduce_above(a, pivots)
    x = [zero] * ncols
    for row, c in zip(a, pivots):
        x[c] = row[ncols]
    return x


# -- resultants ---------------------------------------------------------------

def resultant(f: Poly, g: Poly) -> Fraction:
    """Sylvester-matrix resultant; res(f, g) = lc(f)^deg(g) * prod g(roots of f)."""
    n, m = degree(f), degree(g)
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(m):
        rows.append([Fraction(0)] * i + fr + [Fraction(0)] * (m - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + gr + [Fraction(0)] * (n - 1 - i))
    return determinant(rows, Fraction(0))


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
    a, b = -bound, bound
    while peval(p, a) == 0:
        a -= 1
    while peval(p, b) == 0:
        b += 1

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


def refine_root(p: Poly, iso: RInt, max_width: Fraction) -> RInt:
    """Shrink an isolating interval by bisection until it is narrow enough."""
    lo, hi = iso.lo, iso.hi
    flo = peval(p, lo)
    fhi = peval(p, hi)
    if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
        raise ValueError("not an isolating interval with a sign change")
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        fm = peval(p, mid)
        if fm == 0:
            eps = (hi - lo) / 1024
            lo, hi = mid - eps, mid + eps
            flo, fhi = peval(p, lo), peval(p, hi)
            if (flo > 0) == (fhi > 0):
                raise PrecisionExhausted("root collided with bisection point")
            continue
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return RInt(lo, hi)


# -- complex root isolation -----------------------------------------------------

def isolate_complex_roots(p: Poly, precision_bits: int = 128):
    """Certified boxes for the upper-half-plane roots of a squarefree p.

    Each returned CBox contains exactly one root with Im > 0 and has width at
    most 2^-precision_bits; conjugate pairs are represented once.
    Certification: around every approximation z the disk of radius
    deg * |p(z)/p'(z)| contains at least one root, so deg pairwise disjoint
    such disks pin down one root each.
    """
    n = degree(p)
    nreal = len(isolate_real_roots(p))
    npairs = (n - nreal) // 2
    if npairs == 0:
        return []
    dp = pderiv(p)
    target = Fraction(1, 2 ** precision_bits)
    work = max(80, 2 * precision_bits + 80)
    for attempt in range(8):
        mpmath.mp.prec = work
        approx = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                   for c in reversed(p)], maxsteps=400, extraprec=120)
        boxes = []
        for z in approx:
            re = mpf_to_fraction(z.real) if isinstance(z, mpmath.mpc) else mpf_to_fraction(z)
            im = mpf_to_fraction(z.imag) if isinstance(z, mpmath.mpc) else Fraction(0)
            zbox = CBox(RInt(re), RInt(im))
            val = peval(p, zbox)
            der = peval(dp, zbox)
            try:
                ratio_sq = val.modulus_sq() / der.modulus_sq()
            except ZeroDivisionError:
                boxes = None
                break
            rad_sq = Fraction(n * n) * ratio_sq.hi
            rad = _dyadic_sqrt_upper(rad_sq, work + 60)
            boxes.append(CBox(RInt(re - rad, re + rad), RInt(im - rad, im + rad)))
        if (boxes is not None and _disjoint(boxes)
                and max(b.width for b in boxes) <= target):
            upper = [b for b in boxes if b.im.lo > 0]
            if len(upper) == npairs:
                return upper
        work *= 2
    raise PrecisionExhausted("complex roots could not be certified")


def _dyadic_sqrt_upper(x: Fraction, out_bits: int = 100) -> Fraction:
    """A dyadic rational >= sqrt(x) with resolution 2^-out_bits."""
    if x == 0:
        return Fraction(0)
    num = x.numerator << (2 * out_bits)
    den = x.denominator
    r = _isqrt_ceil(-(-num // den))  # ceil division then ceil sqrt
    return Fraction(r + 1, 1 << out_bits)


def _isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _disjoint(boxes) -> bool:
    for a, b in itertools.combinations(boxes, 2):
        if a.overlaps(b):
            return False
    return True


# -- irreducibility over the integers ------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _divisors(n: int):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    full = sorted(out)
    return [x for d in full for x in (d, -d)]


def _is_irreducible_mod_p(p: Poly, q: int) -> bool:
    """Distinct-degree style check of f mod q via gcd(x^(q^d) - x, f)."""
    f = [int(c) % q for c in p]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    if len(f) - 1 != degree(p):
        return False  # leading coefficient vanished mod q

    def mod_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % q
        return _mod_rem(out, f, q)

    def _mod_rem(a, m, q):
        a = a[:]
        dm = len(m) - 1
        inv = pow(m[-1], -1, q)
        while len(a) - 1 >= dm and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            k = len(a) - 1 - dm
            fac = a[-1] * inv % q
            for i in range(len(m)):
                a[k + i] = (a[k + i] - fac * m[i]) % q
            while len(a) > 1 and a[-1] == 0:
                a.pop()
        return a

    def mod_gcd(a, b):
        a, b = a[:], b[:]
        while any(b):
            a, b = b, _mod_rem(a, b, q)
            while len(b) > 1 and b[-1] == 0:
                b.pop()
        return a

    n = degree(p)
    x = [0, 1]
    xq = x[:]
    for d in range(1, n // 2 + 1):
        # xq <- xq^(q) mod f by square and multiply on the exponent q
        base = xq[:]
        acc = [1]
        e = q
        while e:
            if e & 1:
                acc = mod_mul(acc, base)
            base = mod_mul(base, base)
            e >>= 1
        xq = acc
        diff = [(c - (1 if i == 1 else 0)) % q for i, c in enumerate(xq)]
        while len(diff) > 1 and diff[-1] == 0:
            diff.pop()
        g = mod_gcd(f, diff)
        if len(g) > 1:
            return False
    return True


def check_irreducible(p: Poly) -> None:
    """Exact irreducibility over Q for a monic integer polynomial, deg <= 8.

    Fast accept when f is irreducible mod some small prime; the complete
    fallback is a Kronecker search for monic integer factors, which never
    lies in either direction at these degrees.

    Raises Reducible if a factorization exists.
    """
    n = degree(p)
    if n == 1:
        return
    if any(c.denominator != 1 for c in p):
        raise ValueError("expected integer coefficients")
    # rational roots: r | constant term for monic integer polynomials
    if p[0] == 0:
        raise Reducible("zero constant term: x divides the polynomial")
    for r in _divisors(int(p[0])):
        if peval(p, Fraction(r)) == 0:
            raise Reducible(f"rational root {r}")
    for q in _SMALL_PRIMES:
        if int(p[-1]) % q != 0 and _is_irreducible_mod_p(p, q):
            return
    # Kronecker: a monic factor g of degree d is pinned by its values at
    # d+1 integer points, each dividing the corresponding value of p.
    sample = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    for d in range(2, n // 2 + 1):
        pts = sample[:d + 1]
        vals = [int(peval(p, Fraction(t))) for t in pts]
        choices = [_divisors(v) for v in vals]
        if any(not c for c in choices):
            raise Reducible("integer root at a sample point")
        total = 1
        for c in choices:
            total *= len(c)
        if total > 4_000_000:
            raise PrecisionExhausted(
                f"irreducibility search too large at degree {d} ({total} combos)")
        for combo in itertools.product(*choices):
            g = _interpolate(pts, combo)
            if g is None or degree(g) != d or g[-1] != 1:
                continue
            if any(c.denominator != 1 for c in g):
                continue
            _, rem = pdivmod(p, g)
            if is_zero(rem):
                raise Reducible(f"factor {g}")
    return


def _interpolate(xs, ys):
    """Lagrange interpolation through integer points; None if degenerate."""
    n = len(xs)
    out = (Fraction(0),)
    for i in range(n):
        num = (Fraction(1),)
        den = Fraction(1)
        for j in range(n):
            if i == j:
                continue
            num = pmul(num, poly([-xs[j], 1]))
            den *= Fraction(xs[i] - xs[j])
        out = padd(out, pscale(num, Fraction(ys[i]) / den))
    return out


# -- small multivariate polynomials over Q ------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> Fraction.

    Just enough ring structure to expand determinants symbolically (norm
    forms) and evaluate them exactly on integer vectors or elementwise on
    numpy arrays.
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
            v = out.get(e, Fraction(0)) + c
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
            other = MultiPoly.const(self.nvars, other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def eval_exact(self, values):
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                if k:
                    t *= Fraction(v) ** k
            acc += t
        return acc

    def eval_int_numpy(self, cols):
        """Elementwise evaluation on numpy integer arrays (one per variable).

        Coefficients must be integers.  The same expressions run on int64
        and on Python-int object arrays: a caller passes int64 only under
        an a-priori bound below 2^63, as forms._int_image does."""
        import numpy as np
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


def cofactor_det(rows):
    """Determinant of a small square matrix by cofactor expansion along the
    first row.  Division-free, so it runs on any entries with + - and *:
    MultiPoly (the norm form) and RInt (the unit-independence minor)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        term = rows[0][j] * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = term if acc is None else acc + term if j % 2 == 0 else acc - term
    return acc
