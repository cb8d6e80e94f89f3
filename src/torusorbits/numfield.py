"""Exact arithmetic in a number field with archimedean places and units.

The field is Q[x]/(m(x)) for a monic irreducible integer polynomial m of
degree at most 8, decided irreducible from the places' own root regions
(and a CM subfield polynomial from its generator's characteristic
polynomial); the ring of integers is modeled by the order Z[theta]
throughout, which every downstream computation is stable under.  Units are
user supplied and verified (integral, norm +-1, multiplicatively
independent of full Dirichlet rank).

Embeddings are certified: every place carries an isolating rational
interval (real) or box (complex) for one root of m (polyutil.root_regions),
and all absolute values are returned as enclosures whose width the caller
controls.  Every refinement climbs one precision ladder (NumberField._ladder,
doubling up to MAX_PRECISION = 2^16 bits) and evaluates on the cached power
enclosures at each rung (NumberField._evaluate).  The field also
owns the two derived representations the rest of the package uses: the
float image of an element (float_basis, the midpoints of the cached power
enclosures; float_embed, the midpoint of embed), which is the one source of
floats for the scans, and the rational matrix of multiplication by an
element (mult_matrix).  Every exact quantity derived from an element comes
from that matrix: the inverse and the quotient solve M(a) z = b and the
norm is det M(x), both on the integer matrix den(a) M(a) through the
fraction-free kernel of polyutil; the trace, the characteristic
polynomial, the norm form and the integer coordinate maps of forms read
it directly.  Elements hold integer numerators over one denominator, and
ring operations never build a Fraction.  Transcendental steps (logs,
arguments, PSLQ) run in local mpmath precision contexts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import mpmath
import numpy as np

from . import polyutil as pu
from .errors import (DivisionByZero, Inconclusive, MissingCmStructure,
                     NotMonic, PrecisionExhausted, Reducible,
                     UnitVerificationFailed, ValidationError, WrongUnitRank)
from .intervals import CBox, RInt, _frac, atan2_rint, log_rint, pi_rint

DEFAULT_PRECISION = 128
MAX_PRECISION = 1 << 16
MAX_DEGREE = 8
RELATION_BOUND = 10 ** 6        # bound on the coefficients of PSLQ relations
GAP_BOX, GAP_WINDOW = 30, 1.0   # the gap statistic's |e|_inf and |sum| bounds
GAP_POINTS = (2 * GAP_BOX + 1) ** 3     # the most exponent vectors it walks


class FieldElement:
    """Element of a NumberField in the power basis 1, theta, ..., theta^(d-1).

    Stored as integer numerators num over one positive denominator den, in
    lowest terms (gcd(den, *num) = 1; zero is ((0,) * d, 1)), so equal
    elements have equal fields and hashes.  Ring operations and equality
    run on these integers; coeffs is a Fraction view built on demand.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "NumberField", coeffs):
        fr = [Fraction(0)] * field.degree
        for i, c in enumerate(coeffs):
            fr[i] = _frac(c)
        den = math.lcm(*(c.denominator for c in fr))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in fr)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions (a view, not cached)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def as_str(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            parts.append(f"{c}*{mono}" if i else f"{c}")
        return " + ".join(parts) if parts else "0"

    def _check(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValidationError("elements live in different fields")
            return other
        return self.field.from_rational(other)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            try:
                other = self._check(other)
            except TypeError:
                return NotImplemented
        return (self.field is other.field and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def __add__(self, other):
        return self._plus(self._check(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self._plus(self._check(other), -1)

    def _plus(self, other, sign):
        """self + sign * other, for a sign of 1 or -1."""
        da, db = self.den, other.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, other.num)]
        else:
            num = [a * db + sign * b * da for a, b in zip(self.num, other.num)]
            da *= db
        return _reduced(self.field, num, da)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.field._solve(self, self.field.one)

    def __truediv__(self, other):
        return self.field._solve(self._check(other), self)

    def __rtruediv__(self, other):
        if other == 1:
            return self.inverse()
        return self.field._solve(self, self._check(other))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integral(self) -> bool:
        return self.den == 1


def _element(field: "NumberField", num: tuple, den: int) -> FieldElement:
    """The element num / den, trusted to be in lowest terms with den > 0."""
    x = object.__new__(FieldElement)
    x.field = field
    x.num = num
    x.den = den
    return x


def _reduced(field: "NumberField", num, den: int) -> FieldElement:
    """The element num / den for integers num and a positive den, brought
    to lowest terms."""
    g = math.gcd(den, *num)
    if g == 1:
        return _element(field, tuple(num), den)
    return _element(field, tuple(c // g for c in num), den // g)


@dataclass(frozen=True)
class ArchimedeanPlace:
    """One archimedean place: an isolated root of the minimal polynomial.

    Complex places keep the upper-half-plane representative of the conjugate
    pair.  Refining the working precision always nests the new region inside
    the old one, so a place never migrates to a different root.
    """
    index: int
    kind: str                 # "real" | "complex"
    region: object            # RInt for real, CBox for complex
    working_precision: int

    @property
    def is_real(self) -> bool:
        return self.kind == "real"

    def approx(self):
        if self.is_real:
            return float(self.region.mid)
        return self.region.mid()


@dataclass(frozen=True)
class CmStructure:
    """Presentation K = F(sqrt(-d)) with F totally real, given inside K.

    subfield_gen generates F over Q and satisfies subfield_poly; the field
    membership tests for F use the basis g^i, g^i * relative_gen of K.
    """
    subfield_poly: pu.Poly
    subfield_gen: FieldElement
    d: FieldElement
    relative_gen: FieldElement

    @cached_property
    def basis(self) -> tuple:
        """The CM basis of K: g^i, then relative_gen * g^i, for i < [F:Q]."""
        powers = tuple(self.subfield_gen ** i
                       for i in range(pu.degree(self.subfield_poly)))
        return powers + tuple(self.relative_gen * g for g in powers)


@dataclass
class UnitClosureReport:
    target_place: int
    classification: str       # discrete | positive_reals | circle | full
    log_vectors: list         # per unit: (log modulus, argument) floats at the target place
    relations: list           # verified exponent relations among unit moduli
    gap_statistic: Optional[float]
    notes: str


class NumberField:
    """Q[x]/(m(x)) together with its verified unit system.

    Construct through create_field, which validates everything.
    """

    def __init__(self, min_poly: pu.Poly, label: str, _validated=False):
        if not _validated:
            raise ValidationError("use create_field() to construct a NumberField")
        self.min_poly = min_poly
        self.label = label
        self.degree = pu.degree(min_poly)
        self._theta_powers = self._build_powers()
        self.one = FieldElement(self, [1])
        self.zero = FieldElement(self, [])
        self.theta = FieldElement(self, [0, 1] if self.degree > 1 else [0])
        self.units: tuple = ()
        self.cm_structure: Optional[CmStructure] = None
        self._real_roots_iso = pu.isolate_real_roots(min_poly)
        self._place_cache: dict = {}
        self._power_cache: dict = {}
        self._cm_inverse_cache = None
        self._cm_split_cache = None
        self._norm_form = None

    # -- construction helpers --

    def _build_powers(self):
        """Integer coordinates of theta^k for d <= k <= 2d - 2; integral
        because the minimal polynomial is monic."""
        d = self.degree
        powers = {}
        # theta^d = -(m - x^d)
        red = tuple(-int(c) for c in self.min_poly[:-1])
        cur = red
        powers[d] = cur
        for k in range(d + 1, 2 * d - 1):
            shifted = (0,) + cur[:-1]
            top = cur[-1]
            nxt = tuple(s + top * r for s, r in zip(shifted, red))
            powers[k] = nxt
            cur = nxt
        return powers

    def element(self, coeffs) -> FieldElement:
        return FieldElement(self, coeffs)

    def from_rational(self, q) -> FieldElement:
        if isinstance(q, (int, Fraction)):
            return _element(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)
        return FieldElement(self, [q])

    # -- arithmetic core --

    def _product(self, a: tuple, b: tuple, conv: list) -> None:
        """Add the coefficients of the polynomial product a * b (integer
        vectors, not reduced modulo the minimal polynomial) into conv."""
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        conv[i + j] += ca * cb

    def _reduce(self, conv: list, den: int) -> FieldElement:
        """The element conv / den for a polynomial conv of degree at most
        2d - 2: fold theta^k onto the power basis with the integer table."""
        d = self.degree
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                for i, r in enumerate(self._theta_powers[k]):
                    out[i] += ck * r
        return _reduced(self, out, den)

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        conv = [0] * (2 * self.degree - 1)
        self._product(a.num, b.num, conv)
        return self._reduce(conv, a.den * b.den)

    def _solve(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """The z with a * z = b, unique for a nonzero a; a zero a raises
        DivisionByZero.

        den(a) M(a) = mult_matrix(num(a)) is an integer matrix, so the
        fraction-free kernel gives w = X / D with den(a) M(a) w = num(b),
        and z = den(a) X / (D den(b))."""
        sol = pu.int_solve(self.mult_matrix(a.num), b.num)
        if sol is None:
            raise DivisionByZero("division by zero")
        xs, det = sol
        scale = a.den if det > 0 else -a.den
        return _reduced(self, [scale * x for x in xs], abs(det) * b.den)

    def dot(self, xs, ys) -> FieldElement:
        """The sum of x * y over the pairs of xs and ys.  The products are
        summed over one common denominator and reduced modulo the minimal
        polynomial and to lowest terms once; zero factors are skipped,
        which saves most products in sparse matrices."""
        conv = [0] * (2 * self.degree - 1)
        den = 1
        for x, y in zip(xs, ys):
            if x and y:
                pd = x.den * y.den
                if pd == den:
                    self._product(x.num, y.num, conv)
                    continue
                term = [0] * len(conv)
                self._product(x.num, y.num, term)
                lcm = math.lcm(den, pd)
                up, f = lcm // den, lcm // pd
                conv = [c * up + t * f for c, t in zip(conv, term)]
                den = lcm
        return self._reduce(conv, den)

    # -- places --

    def places(self, precision_bits: int = DEFAULT_PRECISION):
        if precision_bits < 64:
            raise ValidationError("precision must be at least 64 bits")
        if precision_bits in self._place_cache:
            return self._place_cache[precision_bits]
        reals, boxes = pu.root_regions(self.min_poly, precision_bits,
                                       self._real_roots_iso)
        regions = [("real", r) for r in reals] + [("complex", b) for b in boxes]
        # nesting: at any two precisions the same index isolates the same
        # root (the real roots come first at every precision, from one
        # isolation).  Both regions contain their root, so same-root regions
        # always intersect; disjointness would mean migration
        for old in self._place_cache.values():
            if any(not pl.region.overlaps(reg)
                   for pl, (_, reg) in zip(old, regions)):
                raise PrecisionExhausted("place migrated under refinement")
        out = [ArchimedeanPlace(i, kind, reg, precision_bits)
               for i, (kind, reg) in enumerate(regions)]
        self._place_cache[precision_bits] = out
        return out

    @property
    def n_places(self) -> int:
        return len(self.places())

    @property
    def signature(self):
        ps = self.places()
        nr = sum(1 for p in ps if p.is_real)
        return nr, len(ps) - nr

    @property
    def unit_rank(self) -> int:
        return self.n_places - 1

    def _power_regions(self, place_index: int, bits: int):
        """Enclosures of 1, theta, ..., theta^(d-1) at a place, cached."""
        key = (place_index, bits)
        if key not in self._power_cache:
            region = self.places(bits)[place_index].region
            powers = [RInt(1) if isinstance(region, RInt) else CBox(1, 0)]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * region)
            self._power_cache[key] = powers
        return self._power_cache[key]

    def _evaluate(self, x: FieldElement, place_index: int, bits: int):
        """Enclosure of x at a place from its power enclosures at bits: an
        RInt at a real place, a CBox at a complex one."""
        powers = self._power_regions(place_index, bits)
        terms = [(c, p) for c, p in zip(x.coeffs, powers) if c]
        if isinstance(powers[0], RInt):
            return sum((p * c for c, p in terms), RInt(0))
        return CBox(sum((p.re * c for c, p in terms), RInt(0)),
                    sum((p.im * c for c, p in terms), RInt(0)))

    @staticmethod
    def _ladder(start: int):
        """The precision ladder of every refinement: start, 2 start, 4
        start, ... bits, raising PrecisionExhausted past MAX_PRECISION."""
        bits = start
        while bits <= MAX_PRECISION:
            yield bits
            bits *= 2
        raise PrecisionExhausted(f"refinement exceeded {MAX_PRECISION} bits")

    def float_basis(self, place: ArchimedeanPlace) -> np.ndarray:
        """Float midpoints of the enclosures of 1, theta, ..., theta^(d-1) at
        a place: float64 at a real place, complex128 at a complex one."""
        powers = self._power_regions(place.index, place.working_precision)
        if place.is_real:
            return np.array([float(p.mid) for p in powers])
        return np.array([p.mid() for p in powers])

    def float_embed(self, x: FieldElement, place: ArchimedeanPlace):
        """Float (real place) or complex (complex place) midpoint of embed."""
        val = self.embed(x, place)
        return float(val.mid) if place.is_real else val.mid()

    def mult_matrix(self, x):
        """Rational d x d matrix of multiplication by x: column t holds the
        coefficients of x * theta^t.  x is an element or its power-basis
        coordinates, which may be symbolic (MultiPoly) or integers (then so
        is the matrix)."""
        red = self._theta_powers[self.degree]
        col = list(x.coeffs if isinstance(x, FieldElement) else x)
        cols = [col]
        for _ in range(self.degree - 1):
            top = col[-1]
            col = [s + top * r for s, r in zip([0] + col[:-1], red)]
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def embed(self, x: FieldElement, place: ArchimedeanPlace, max_width=None):
        """Certified enclosure of the embedding of x at the given place, at
        the place's precision, or no wider than max_width.  The ladder for a
        width starts near it (at most at the place's precision), so a
        coarse width never pays for the place's precision."""
        if max_width is None:
            return self._evaluate(x, place.index, place.working_precision)
        num, den = Fraction(max_width).as_integer_ratio()
        need = max(64, den.bit_length() - num.bit_length() + 16)
        start = min(place.working_precision, 1 << (need - 1).bit_length())
        for bits in self._ladder(start):
            val = self._evaluate(x, place.index, bits)
            if val.width <= max_width:
                return val

    def normalized_abs(self, x: FieldElement, place: ArchimedeanPlace,
                       max_width=None) -> RInt:
        """|x|_v for real places, |x|_v^2 for complex, as an enclosure."""
        if max_width is None:
            max_width = Fraction(1, 2 ** (place.working_precision // 2))
        for bits in self._ladder(place.working_precision):
            out = _normalized(self._evaluate(x, place.index, bits))
            if out.width <= max_width:
                return out

    def log_abs(self, x: FieldElement, place: ArchimedeanPlace,
                target_width=Fraction(1, 2 ** 80)) -> RInt:
        """Certified log of the normalized absolute value (x nonzero).

        Since d log y = dy / y, an enclosure [lo, hi] of y no wider than
        target_width * lo / 2 gives a log enclosure no wider than half the
        target before rounding; only that width is asked of normalized_abs,
        so the place's own precision serves whenever it can."""
        if x.is_zero():
            raise DivisionByZero("log of zero")
        for bits in self._ladder(place.working_precision):
            enc = _normalized(self._evaluate(x, place.index, bits))
            if enc.lo > 0:
                need = target_width * enc.lo / 2
                if enc.width > need:
                    enc = self.normalized_abs(x, self.places(bits)[place.index],
                                              max_width=need)
                out = log_rint(enc, prec=bits + 64)
                if out.width <= target_width:
                    return out


def _normalized(val) -> RInt:
    """The normalized absolute value of an enclosure: |z| of an RInt (a
    real place), |z|^2 of a CBox (a complex place)."""
    return abs(val) if isinstance(val, RInt) else val.modulus_sq()


# -- public operations ---------------------------------------------------------


def create_field(min_poly, declared_units=(), cm_structure=None,
                 label: str = "") -> NumberField:
    """Build a verified field handle.

    min_poly: integer coefficient list, low to high, monic, degree <= 8,
    irreducible (verified from the places' root regions, by
    _certify_irreducible).  declared_units: coefficient vectors of the
    fundamental S_infinity-units, exactly unit_rank many, each verified to be
    integral of norm +-1 and jointly of full rank in the log lattice.
    cm_structure: optional dict with keys subfield_poly, subfield_gen, d,
    relative_gen describing K = F(sqrt(-d)).
    """
    p = pu.poly(min_poly)
    if pu.degree(p) < 1:
        raise ValidationError("constant polynomial")
    if pu.degree(p) > MAX_DEGREE:
        raise ValidationError(f"degree cap is {MAX_DEGREE}")
    if any(c.denominator != 1 for c in p):
        raise NotMonic("coefficients must be integers")
    if p[-1] != 1:
        raise NotMonic("leading coefficient must be 1")
    if _squarefree_part(p) != p:
        raise Reducible("the polynomial has a repeated factor")

    K = NumberField(p, label or f"deg{pu.degree(p)}", _validated=True)
    _certify_irreducible(K)

    units = tuple(K.element(u) for u in declared_units)
    need = K.unit_rank
    if len(units) != need:
        raise WrongUnitRank(f"need {need} independent units, got {len(units)}")
    for u in units:
        if not u.is_integral():
            raise UnitVerificationFailed(f"{u.as_str()} is not in Z[theta]")
        n = field_norm(u)
        if n != 1 and n != -1:
            raise UnitVerificationFailed(f"{u.as_str()} has norm {n}")
    if need >= 2:
        _verify_unit_independence(K, units)
    K.units = units

    if cm_structure is not None:
        K.cm_structure = _attach_cm(K, cm_structure)
    return K


def _certify_irreducible(K: NumberField) -> None:
    """Raise Reducible unless the squarefree minimal polynomial m is
    irreducible over Q.

    A reducible m has a monic integer factor of degree at most d/2 (Gauss's
    lemma).  Its roots are some real roots and some conjugate pairs of m's,
    so it is the product of x - r over real places and of
    x^2 - 2 Re z x + |z|^2 over complex ones, and its coefficients lie in
    that product's interval coefficients for one combination of the
    places' regions.  The ladder climbs from the default places until each
    combination has an enclosure without an integer (no factor) or names
    one integer candidate, which exact division decides.  At degree 8
    there are at most 2^8 combinations."""
    m, half = K.min_poly, K.degree // 2
    for bits in K._ladder(DEFAULT_PRECISION):
        factors = [(-pl.region, RInt(1)) if pl.is_real else
                   (pl.region.modulus_sq(), pl.region.re * -2, RInt(1))
                   for pl in K.places(bits)]
        candidates = []
        for combo in (c for k in range(1, half + 1)
                      for c in itertools.combinations(factors, k)
                      if sum(len(f) - 1 for f in c) <= half):
            coeffs = [RInt(1)]
            for f in combo:
                prod = [RInt(0)] * (len(coeffs) + len(f) - 1)
                for i, a in enumerate(coeffs):
                    for j, b in enumerate(f):
                        prod[i + j] = prod[i + j] + a * b
                coeffs = prod
            ends = [(math.ceil(c.lo), math.floor(c.hi)) for c in coeffs]
            if any(lo > hi for lo, hi in ends):
                continue        # an enclosure without an integer: no factor
            if any(lo < hi for lo, hi in ends):
                break           # more than one integer: refine
            candidates.append(pu.poly(lo for lo, _ in ends))
        else:
            for g in candidates:
                if pu.is_zero(pu.pdivmod(m, g)[1]):
                    raise Reducible(f"monic factor {[int(c) for c in g]}")
            return


def _verify_unit_independence(K: NumberField, units):
    """Full rank of the log-embedding matrix, certified by a nonzero minor
    at log widths 2^-40, 2^-80, ..., 2^-200."""
    places = K.places()[:len(units)]
    for k in range(1, 6):
        width = Fraction(1, 2 ** (40 * k))
        logs = [[K.log_abs(u, pl, target_width=width) for pl in places]
                for u in units]
        if not pu.cofactor_det(logs).contains(0):
            return
    raise UnitVerificationFailed(
        "units look multiplicatively dependent at working precision")


def _attach_cm(K: NumberField, cm: dict) -> CmStructure:
    """The CM presentation cm (a dict) of K, validated.  subfield_poly must
    be irreducible: it is squarefree and vanishes at subfield_gen, so the
    minimal polynomial of subfield_gen divides it, and the characteristic
    polynomial of subfield_gen, a power of that minimal polynomial, is
    subfield_poly^2 exactly when the two agree."""
    sp = pu.poly(cm["subfield_poly"])
    gen, d, rg = (K.element(cm[key])
                  for key in ("subfield_gen", "d", "relative_gen"))
    fdeg = pu.degree(sp)
    if 2 * fdeg != K.degree:
        raise ValidationError("subfield degree must be half the field degree")
    if any(c.denominator != 1 for c in sp) or sp[-1] != 1:
        raise ValidationError("subfield polynomial must be monic integral")
    if _squarefree_part(sp) != sp:
        raise Reducible("subfield polynomial has a repeated factor")
    if pu.peval(sp, gen):
        raise ValidationError("subfield_gen does not satisfy subfield_poly")
    if _charpoly(K, gen) != pu.pmul(sp, sp):
        raise Reducible("subfield polynomial is reducible")
    if not (rg * rg + d).is_zero():
        raise ValidationError("relative_gen^2 + d must vanish exactly")
    st = CmStructure(sp, gen, d, rg)
    if subfield_coordinates(K, st, d) is None:
        raise ValidationError("d does not lie in the declared subfield")
    return st


def subfield_coordinates(K: NumberField, cm: CmStructure, x: FieldElement):
    """Coordinates of x in the basis g^i of F, or None when x is not in F:
    the first half of its coordinates in the CM basis, whose relative_gen
    half vanishes exactly on F."""
    inv = _cm_inverse(K, cm)
    coords = [sum(a * c for a, c in zip(row, x.num)) / x.den for row in inv]
    fdeg = len(inv) // 2
    return None if any(coords[fdeg:]) else coords[:fdeg]


def _cm_inverse(K: NumberField, cm: CmStructure):
    """The inverse of the CM basis matrix B, whose columns are the
    power-basis coordinates of g^i, then of relative_gen * g^i (i < d/2),
    as rational rows.  B diag(den) is the integer matrix N of the basis
    numerators, inverted by int_solve on the columns of the identity.
    Built once and cached on the field; a singular B is refused."""
    if K._cm_inverse_cache is not None:
        return K._cm_inverse_cache
    d = K.degree
    mat = [[b.num[i] for b in cm.basis] for i in range(d)]
    cols = [pu.int_solve(mat, [int(i == k) for i in range(d)])
            for k in range(d)]
    if cols[0] is None:
        raise ValidationError("CM basis is degenerate")
    K._cm_inverse_cache = [[Fraction(b.den * xs[j], det) for xs, det in cols]
                           for j, b in enumerate(cm.basis)]
    return K._cm_inverse_cache


def _cm_split_solver(K: NumberField, cm: CmStructure):
    """The two rational d x d projections of the F + relative_gen*F split:
    gamma = P_gamma x and delta = P_delta x in power-basis coordinates, for
    gamma = sum c_i g^i and delta = sum c_(d/2+i) g^i from the coordinates
    c in the CM basis.  Built once and cached on the field."""
    if K._cm_split_cache is not None:
        return K._cm_split_cache
    inv = _cm_inverse(K, cm)
    d, fdeg = K.degree, len(inv) // 2
    gens = cm.basis[:fdeg]
    K._cm_split_cache = tuple(
        [[sum(Fraction(g.num[k], g.den) * inv[off + i][j]
              for i, g in enumerate(gens)) for j in range(d)]
         for k in range(d)] for off in (0, fdeg))
    return K._cm_split_cache


def split_cm(K: NumberField, cm: CmStructure, x: FieldElement):
    """Exact splitting x = gamma + relative_gen * delta with gamma, delta in F."""
    return tuple(K.element([sum(a * c for a, c in zip(row, x.num)) / x.den
                            for row in proj])
                 for proj in _cm_split_solver(K, cm))


def field_norm(x: FieldElement) -> Fraction:
    """N_{K/Q}(x), exact: the determinant of multiplication by x, which is
    det mult_matrix(num(x)) / den(x)^d."""
    return Fraction(pu.int_determinant(x.field.mult_matrix(x.num)),
                    x.den ** x.field.degree)


def is_cm(field: NumberField) -> bool:
    """True exactly when K is a totally imaginary quadratic extension of a
    totally real field with a totally positive d; needs the declared
    presentation for degree > 2.

    Given the presentation, d is totally positive once K is totally
    imaginary and F totally real.  create_field checked that d lies in F,
    that relative_gen^2 = -d and that the g^i and relative_gen g^i span K,
    so K = F(relative_gen).  A real place sigma of F extends to places of
    K, all complex, at which relative_gen^2 = -sigma(d); sigma(d) < 0
    would make relative_gen real there and the place real, and d is not
    zero."""
    n_real, _ = field.signature
    if n_real > 0:
        return False
    if field.degree == 2:
        return True  # imaginary quadratic: F = Q
    cm = field.cm_structure
    if cm is None:
        raise MissingCmStructure(
            "degree > 2 needs a declared CM presentation")
    # F totally real: all roots of subfield_poly are real
    return (len(pu.isolate_real_roots(cm.subfield_poly))
            == pu.degree(cm.subfield_poly))


def norm_form(K: NumberField) -> "pu.MultiPoly":
    """The norm as a polynomial in the power-basis coordinates.

    Symbolic determinant of the multiplication matrix by pu.cofactor_det,
    each minor expanded once; integer coefficients since the minimal
    polynomial is integral.  Cached on the field.
    """
    if K._norm_form is None:
        xs = [pu.MultiPoly.variable(K.degree, i) for i in range(K.degree)]
        K._norm_form = pu.cofactor_det(K.mult_matrix(xs))
    return K._norm_form


def trace(K: NumberField, x: FieldElement) -> Fraction:
    """Field trace, exactly, from the multiplication matrix diagonal."""
    M = K.mult_matrix(x)
    return sum(M[j][j] for j in range(K.degree))


def order_discriminant(K: NumberField, basis=None) -> Fraction:
    """Discriminant of the lattice spanned by basis (default Z[theta])."""
    d = K.degree
    if basis is None:
        basis = [K.theta ** i for i in range(d)]
    if len(basis) != d:
        raise ValidationError("basis must have length equal to the degree")
    gram = [[trace(K, bi * bj) for bj in basis] for bi in basis]
    # det(gram) = det(L gram) / L^d for the common denominator L
    scale = math.lcm(*(t.denominator for row in gram for t in row))
    return Fraction(pu.int_determinant([[int(t * scale) for t in row]
                                        for row in gram]), scale ** d)


# -- unit closure classification ---------------------------------------------------

def _charpoly(K: NumberField, x: FieldElement) -> pu.Poly:
    """Characteristic polynomial of multiplication by x (roots = embeddings):
    det(t I - M(x)) by pu.cofactor_det, with t a one-variable MultiPoly."""
    t = pu.MultiPoly.variable(1, 0)
    chi = pu.cofactor_det([[t - c if i == j else -c for j, c in enumerate(row)]
                           for i, row in enumerate(K.mult_matrix(x))])
    return pu.poly(chi.terms.get((k,), 0) for k in range(K.degree + 1))


def _squarefree_part(p: pu.Poly) -> pu.Poly:
    return pu.pdivmod(p, pu.pgcd(p, pu.pderiv(p)))[0]


def modulus_is_one(K: NumberField, x: FieldElement, place: ArchimedeanPlace) -> bool:
    """Exact test |sigma_v(x)| = 1 at a complex place.

    1/z and conj(z), equal iff |z| = 1, are roots of P, the squarefree part
    of chi rev(chi) (chi: that of the characteristic polynomial of x), a
    primitive integer polynomial of degree m.  Its distinct roots are more
    than sep apart, sep^2 = 3 m^-(m+2) ||P||_2^(2(1-m)) (Mahler, Michigan
    Math. J. 11, 1964; |disc P| >= 1), and |1/z - conj z| = |1 - |z|^2|/|z|,
    so a rung's enclosure [lo, hi] of |z|^2 decides: off the circle if it
    excludes 1, on it if max((1 - lo)^2, (hi - 1)^2) < sep^2 lo.  Some rung
    does.
    """
    if place.is_real:
        raise ValidationError("modulus_is_one is for complex places")
    if x.is_zero():
        return False
    chi = _squarefree_part(_charpoly(K, x))
    rev = pu.poly(reversed(chi))
    if pu.degree(pu.pgcd(chi, rev)) == 0:
        return False  # no root of chi has its inverse among the roots
    ints = pu.integer_coefficients(_squarefree_part(pu.pmul(chi, rev)))
    m, norm_sq = len(ints) - 1, sum(c * c for c in ints) // math.gcd(*ints) ** 2
    sep_sq = Fraction(3, m ** (m + 2) * norm_sq ** (m - 1))
    for bits in K._ladder(max(96, place.working_precision)):
        msq = K._evaluate(x, place.index, bits).modulus_sq()
        if not msq.contains(1):
            return False
        if max((1 - msq.lo) ** 2, (msq.hi - 1) ** 2) < sep_sq * msq.lo:
            return True


def unit_closure_classify(field: NumberField, target_place: int,
                          precision_bits: int = DEFAULT_PRECISION
                          ) -> UnitClosureReport:
    """Classify the closure of the unit projections into the target completion.

    Rank-1 unit groups project discretely; a real target place with rank >= 2
    closes up to the positive reals, and so does a complex one of a CM field
    (is_cm, which raises MissingCmStructure for a totally imaginary field of
    degree > 2 declared without its presentation).  Otherwise the shape at a
    complex place follows from exact modulus-one tests plus integer-relation
    detection on the log moduli, with coefficients bounded by
    RELATION_BOUND: discrete moduli give the circle; dense ones give the
    full completion, at three places after a spiral-functional search and at
    more when no relation is found.  A spiral functional at the detection
    bound, or one relation at more than three places (a second would make
    the circle), raises Inconclusive.  A unit that modulus_is_one puts on
    the circle reports the log modulus 0.0 exactly.
    """
    places = field.places(precision_bits)
    if not 0 <= target_place < len(places):
        raise ValidationError("no such place")
    pl = places[target_place]
    units = list(field.units)
    width = Fraction(1, 2 ** 60)
    # the normalized log: log|u| at a real place, log|u|^2 at a complex one
    logs = [float(field.log_abs(u, pl, target_width=width).mid) for u in units]
    shape, gap, relations, notes, on_circle = _closure_shape(
        field, units, pl, logs, precision_bits)
    if pl.is_real:
        logvecs = [(lg, 0.0 if field.embed(u, pl, max_width=width).lo > 0
                    else 3.141592653589793) for u, lg in zip(units, logs)]
    else:
        logvecs = [(0.0 if flag else lg / 2.0,
                    _arg_float(field.embed(u, pl, max_width=width),
                               precision_bits))
                   for u, lg, flag in zip(units, logs, on_circle)]
    return UnitClosureReport(target_place, shape, logvecs, relations, gap,
                             notes)


def _closure_shape(field, units, pl, logs, precision_bits):
    """(classification, gap statistic, relations, notes, on-circle flags) of
    the closure at the place pl, from the units' normalized logs there.

    The declared units are certified independent, so each unit on the
    circle and each verified relation's product is a unit of infinite
    order with modulus one, whose powers are dense in the circle; and when
    the moduli have rank <= 1 there is at least one of them, since r >= 3
    means at least two units."""
    r = field.n_places
    off = [False] * len(units)
    if r <= 2:
        return "discrete", None, [], "unit rank <= 1 projects discretely", off
    if pl.is_real:
        return ("positive_reals", _ray_gap_statistic(logs), [],
                "real completion, rank >= 2", off)
    if is_cm(field):
        return ("positive_reals", _ray_gap_statistic(logs), [],
                "CM field: unit moduli fill rays", off)

    on_circle = [modulus_is_one(field, u, pl) for u in units]
    moving = [u for u, flag in zip(units, on_circle) if not flag]
    relations = _modulus_relations(field, moving, pl, precision_bits)
    if len(moving) - len(relations) <= 1:
        return ("circle", None, relations,
                "moduli discrete, circle fiber dense", on_circle)
    if r > 3 and relations:
        raise Inconclusive(f"{len(moving) - 1} units still move after the "
                           f"relation {relations[0]} at {r} places")
    if r > 3:
        return ("full", None, relations,
                "dense moduli, more than three places", on_circle)
    # r == 3, so two units, both moving
    found = _spiral_functional(field, units, pl, precision_bits)
    if found is not None:
        raise Inconclusive(f"spiral functional {found} at the detection "
                           "bound")
    return ("full", None, relations,
            "no functional up to the detection bound", on_circle)


def _arg_float(box: CBox, precision_bits: int) -> float:
    """Midpoint argument of a complex box; values on the negative real axis
    (where atan2 enclosures break down) report pi."""
    try:
        return float(atan2_rint(box.im, box.re, prec=precision_bits + 64).mid)
    except ValueError:
        return 3.141592653589793


def _ray_gap_statistic(logs):
    """Smallest positive gap between log-modulus projections in
    [-GAP_WINDOW, GAP_WINDOW].

    logs are the units' log moduli as floats; exponent vectors range over
    |e|_inf <= b, b = GAP_BOX for up to three units and, for more, the
    largest b whose box holds at most GAP_POINTS = 61^3 vectors (10, 5, 3
    and 2 for four to seven units), so the walk is bounded whatever the
    rank.  A discrete projection keeps this bounded below by the generator
    length no matter the box; a dense one drives it toward zero, so a small
    value witnesses non-discreteness.
    """
    box = GAP_BOX
    while (2 * box + 1) ** len(logs) > GAP_POINTS:
        box -= 1
    vals = set()
    for e in itertools.product(range(-box, box + 1), repeat=len(logs)):
        s = sum(ej * lj for ej, lj in zip(e, logs))
        if -GAP_WINDOW <= s <= GAP_WINDOW:
            vals.add(s)
    pts = sorted(vals)
    if len(pts) < 2:
        return float("inf")
    return min(b - a for a, b in zip(pts, pts[1:]) if b > a)


def _as_mp(r: RInt):
    """Midpoint of an enclosure at the current mpmath precision."""
    return mpmath.mpf(r.mid.numerator) / mpmath.mpf(r.mid.denominator)


def _modulus_relations(field, moving, pl, precision_bits):
    """Verified integer relations among the nonzero log moduli.

    Candidates come from PSLQ on high-precision midpoints; each candidate is
    accepted only if the corresponding unit product has modulus exactly one
    (an exact algebraic test), so no relation is ever taken on faith.
    """
    if len(moving) <= 1:
        return []
    logs = [field.log_abs(u, pl, target_width=Fraction(1, 2 ** 200))
            for u in moving]
    with mpmath.workprec(max(256, precision_bits)):
        cand = mpmath.pslq([_as_mp(x) for x in logs], maxcoeff=RELATION_BOUND,
                           maxsteps=10 ** 5)
    rels = []
    if cand is not None:
        w = field.one
        for u, e in zip(moving, cand):
            w = w * u ** int(e)
        if modulus_is_one(field, w, pl):
            rels.append(tuple(int(c) for c in cand))
    return rels


def _spiral_functional(field, units, pl, precision_bits):
    """PSLQ's integer relation (m1, m2, n) with p*x_j + n*y_j/(2pi) = m_j
    for a real p, between the two units' log moduli x_j and arguments y_j,
    or None when there is none up to the detection bound."""
    width = Fraction(1, 2 ** 200)
    x = [field.log_abs(u, pl, target_width=width) for u in units]
    y = []
    for u in units:
        box = field.embed(u, pl, max_width=width)
        y.append(atan2_rint(box.im, box.re, prec=precision_bits + 128))
    two_pi = pi_rint(prec=precision_bits + 128) * 2
    yhat = [yy / two_pi for yy in y]
    with mpmath.workprec(max(320, precision_bits)):
        target = [_as_mp(x[1]), -_as_mp(x[0]),
                  -(_as_mp(yhat[0]) * _as_mp(x[1])
                    - _as_mp(yhat[1]) * _as_mp(x[0]))]
        cand = mpmath.pslq(target, maxcoeff=RELATION_BOUND, maxsteps=10 ** 5)
    return None if cand is None else tuple(int(c) for c in cand)
