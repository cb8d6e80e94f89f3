"""Exact arithmetic in a number field with archimedean places and units.

The field is Q[x]/(m(x)) for a monic irreducible integer polynomial m of
degree at most 8; the ring of integers is modeled by the order Z[theta]
throughout, which every downstream computation is stable under.  Units are
user supplied and verified (integral, norm +-1, multiplicatively
independent of full Dirichlet rank); a Pell helper produces the fundamental
unit for real quadratic fields.

Embeddings are certified: every place carries an isolating rational
interval (real) or box (complex) for one root of m, and all absolute values
are returned as enclosures whose width the caller controls.  The field also
owns the two derived representations the rest of the package uses: the
float image of an element (float_basis, the midpoints of the cached power
enclosures; float_embed, the midpoint of embed), which is the one source of
floats for the scans, and the rational matrix of multiplication by an
element (mult_matrix), behind the trace, the characteristic polynomial, the
norm form and the integer coordinate maps of forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from . import polyutil as pu
from .errors import (DivisionByZero, Inconclusive, MissingCmStructure, NoUnits,
                     NotMonic, PrecisionExhausted, UnitVerificationFailed,
                     ValidationError, WrongUnitRank)
from .intervals import CBox, RInt, _frac, atan2_rint, log_rint, pi_rint

DEFAULT_PRECISION = 128
MAX_DEGREE = 8


class FieldElement:
    """Element of a NumberField in the power basis 1, theta, ..., theta^(d-1)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "NumberField", coeffs):
        d = field.degree
        cs = [Fraction(0)] * d
        for i, c in enumerate(coeffs):
            cs[i] = _frac(c)
        self.field = field
        self.coeffs = tuple(cs)

    def __repr__(self):
        return f"<{self.as_str()} in {self.field.label}>"

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
        return FieldElement(self.field, [other])

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            try:
                other = self._check(other)
            except TypeError:
                return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.field,
                            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.field._inv(self)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv if other == 1 else self._check(other) * inv

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
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def coeff_poly(self) -> pu.Poly:
        return pu.poly(self.coeffs)

    def norm(self) -> Fraction:
        return self.field.field_norm(self)


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


@dataclass
class UnitClosureReport:
    target_place: int
    classification: str       # discrete | positive_reals | circle | spiral_candidate | full
    log_vectors: list         # per unit: (log modulus, argument) floats at the target place
    relations: list           # verified exponent relations among unit moduli
    gap_statistic: Optional[float]
    tolerance: float
    precision_bits: int
    notes: str = ""


@dataclass
class BalanceResult:
    xi: FieldElement
    bound: Fraction           # certified upper bound on max(|xi a_i|, |xi a_i|^-1)
    exponents: tuple
    radius: int


class NumberField:
    """Q[x]/(m(x)) together with its verified unit system.

    Construct through create_field, which validates everything.
    """

    def __init__(self, min_poly: pu.Poly, label: str,
                 declared_units: Sequence[Sequence] = (),
                 cm_structure=None, _validated=False):
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
        self._place_cache: dict = {}
        self._real_roots_iso = None

    # -- construction helpers --

    def _build_powers(self):
        d = self.degree
        powers = {}
        # theta^d = -(m - x^d)
        red = tuple(-c for c in self.min_poly[:-1])
        cur = red
        powers[d] = cur
        for k in range(d + 1, 2 * d - 1):
            shifted = (Fraction(0),) + cur[:-1]
            top = cur[-1]
            nxt = tuple(s + top * r for s, r in zip(shifted, red))
            powers[k] = nxt
            cur = nxt
        return powers

    def element(self, coeffs) -> FieldElement:
        return FieldElement(self, coeffs)

    def from_rational(self, q) -> FieldElement:
        return FieldElement(self, [q])

    # -- arithmetic core --

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        d = self.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    if cb:
                        conv[i + j] += ca * cb
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                red = self._theta_powers[k]
                for i in range(d):
                    out[i] += ck * red[i]
        return FieldElement(self, out)

    def _inv(self, a: FieldElement) -> FieldElement:
        if a.is_zero():
            raise DivisionByZero("inverse of zero")
        # extended Euclid on (coeff poly, min_poly)
        r0, r1 = self.min_poly, a.coeff_poly()
        s0, s1 = pu.poly([0]), pu.poly([1])
        while not pu.is_zero(r1):
            q, r = pu.pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, pu.padd(s0, pu.pscale(pu.pmul(q, s1), -1))
        # r0 = gcd = constant (min_poly irreducible)
        if pu.degree(r0) != 0 or r0[0] == 0:
            raise DivisionByZero("element not invertible (degenerate field?)")
        inv_poly = pu.pscale(s0, 1 / r0[0])
        _, rem = pu.pdivmod(inv_poly, self.min_poly)
        coeffs = list(rem) + [Fraction(0)] * self.degree
        return FieldElement(self, coeffs[:self.degree])

    # -- norms --

    def field_norm(self, x: FieldElement) -> Fraction:
        """N_{K/Q}(x), exact, via the resultant of m and the coefficient poly."""
        if x.is_zero():
            return Fraction(0)
        xp = x.coeff_poly()
        if pu.degree(xp) == 0:
            return xp[0] ** self.degree
        return pu.resultant(self.min_poly, xp)

    # -- places --

    def places(self, precision_bits: int = DEFAULT_PRECISION):
        if precision_bits < 64:
            raise ValidationError("precision must be at least 64 bits")
        if precision_bits in self._place_cache:
            return self._place_cache[precision_bits]
        width = Fraction(1, 2 ** precision_bits)
        if self._real_roots_iso is None:
            self._real_roots_iso = pu.isolate_real_roots(self.min_poly)
        regions = []
        for iso in self._real_roots_iso:
            regions.append(("real", pu.refine_root(self.min_poly, iso, width)))
        cboxes = sorted(pu.isolate_complex_roots(self.min_poly, precision_bits),
                        key=lambda b: (b.re.mid, b.im.mid))
        for b in cboxes:
            if b.width > width:
                raise PrecisionExhausted("complex isolation wider than requested")
            regions.append(("complex", b))
        n_real = sum(1 for k, _ in regions if k == "real")
        n_cplx = len(regions) - n_real
        if n_real + 2 * n_cplx != self.degree:
            raise PrecisionExhausted("place count does not match the degree")
        # nesting: at any two precisions the same index isolates the same root
        for bits, old in sorted(self._place_cache.items()):
            for new_pl, old_pl in zip(regions, old):
                kind, reg = new_pl
                if kind != old_pl.kind:
                    raise PrecisionExhausted("place kinds changed under refinement")
                # both regions contain their root, so same-root regions
                # always intersect; disjointness would mean migration
                if not old_pl.region.overlaps(reg):
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
        cache = getattr(self, "_power_cache", None)
        if cache is None:
            cache = {}
            self._power_cache = cache
        if key in cache:
            return cache[key]
        region = self.places(bits)[place_index].region
        powers = [RInt(1) if isinstance(region, RInt) else CBox(1, 0)]
        for _ in range(self.degree - 1):
            powers.append(powers[-1] * region)
        cache[key] = powers
        return powers

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
        coordinates, which may be symbolic (MultiPoly)."""
        red = self._theta_powers[self.degree]
        col = list(x.coeffs if isinstance(x, FieldElement) else x)
        cols = [col]
        for _ in range(self.degree - 1):
            top = col[-1]
            col = [s + top * r for s, r in zip([Fraction(0)] + col[:-1], red)]
            cols.append(col)
        return [list(row) for row in zip(*cols)]

    def embed(self, x: FieldElement, place: ArchimedeanPlace, max_width=None):
        """Certified enclosure of the embedding of x at the given place."""
        if max_width is None:
            bits = place.working_precision
        else:
            # start near the requested width; refinement doubles as needed
            need = max(64, -Fraction(max_width).as_integer_ratio()[0].bit_length()
                       + Fraction(max_width).as_integer_ratio()[1].bit_length() + 16)
            bits = min(place.working_precision, 1 << (need - 1).bit_length())
        while True:
            powers = self._power_regions(place.index, bits)
            if isinstance(powers[0], RInt):
                val = RInt(0)
                for c, p in zip(x.coeffs, powers):
                    if c:
                        val = val + p * c
            else:
                re = RInt(0)
                im = RInt(0)
                for c, p in zip(x.coeffs, powers):
                    if c:
                        re = re + p.re * c
                        im = im + p.im * c
                val = CBox(re, im)
            if max_width is None or val.width <= max_width:
                return val
            bits *= 2
            if bits > 1 << 16:
                raise PrecisionExhausted("embedding refinement exceeded 65536 bits")

    def normalized_abs(self, x: FieldElement, place: ArchimedeanPlace,
                       max_width=None) -> RInt:
        """|x|_v for real places, |x|_v^2 for complex, as an enclosure."""
        if max_width is None:
            max_width = Fraction(1, 2 ** (place.working_precision // 2))
        bits = place.working_precision
        while True:
            val = self.embed(x, self.places(bits)[place.index])
            out = abs(val) if place.is_real else val.modulus_sq()
            if out.width <= max_width:
                return out
            bits *= 2
            if bits > 1 << 16:
                raise PrecisionExhausted("normalized_abs refinement exceeded 65536 bits")

    def log_abs(self, x: FieldElement, place: ArchimedeanPlace,
                target_width=Fraction(1, 2 ** 80)) -> RInt:
        """Certified log of the normalized absolute value (x nonzero)."""
        if x.is_zero():
            raise DivisionByZero("log of zero")
        bits = place.working_precision
        while True:
            enc = self.normalized_abs(x, self.places(bits)[place.index],
                                      max_width=Fraction(1, 2 ** bits))
            if enc.lo > 0:
                out = log_rint(enc, prec=bits + 64)
                if out.width <= target_width:
                    return out
            bits *= 2
            if bits > 1 << 16:
                raise PrecisionExhausted("log refinement exceeded 65536 bits")


# -- public operations ---------------------------------------------------------


def create_field(min_poly, declared_units=(), cm_structure=None,
                 label: str = "") -> NumberField:
    """Build a verified field handle.

    min_poly: integer coefficient list, low to high, monic, degree <= 8,
    irreducible (verified).  declared_units: coefficient vectors of the
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
    pu.check_irreducible(p)

    K = NumberField(p, label or f"deg{pu.degree(p)}", _validated=True)
    K.places(DEFAULT_PRECISION)

    units = tuple(K.element(u) for u in declared_units)
    need = K.unit_rank
    if len(units) != need:
        raise WrongUnitRank(f"need {need} independent units, got {len(units)}")
    for u in units:
        if not u.is_integral():
            raise UnitVerificationFailed(f"{u.as_str()} is not in Z[theta]")
        n = K.field_norm(u)
        if n != 1 and n != -1:
            raise UnitVerificationFailed(f"{u.as_str()} has norm {n}")
    if need >= 2:
        _verify_unit_independence(K, units)
    K.units = units

    if cm_structure is not None:
        K.cm_structure = _attach_cm(K, cm_structure)
    return K


def _verify_unit_independence(K: NumberField, units):
    """Full rank of the log-embedding matrix, certified by a nonzero minor."""
    r = K.n_places
    k = len(units)
    places = K.places()
    width = Fraction(1, 2 ** 40)
    logs = [[K.log_abs(u, pl, target_width=width) for pl in places[:k]]
            for u in units]
    det = pu.cofactor_det(logs)
    attempts = 0
    while det.contains(0):
        attempts += 1
        if attempts > 4:
            raise UnitVerificationFailed(
                "units look multiplicatively dependent at working precision")
        width /= Fraction(2 ** 40)
        logs = [[K.log_abs(u, pl, target_width=width) for pl in places[:k]]
                for u in units]
        det = pu.cofactor_det(logs)


def _attach_cm(K: NumberField, cm) -> CmStructure:
    if isinstance(cm, CmStructure):
        sp, gen, d, rg = cm.subfield_poly, cm.subfield_gen, cm.d, cm.relative_gen
    else:
        sp = pu.poly(cm["subfield_poly"])
        gen = K.element(cm["subfield_gen"])
        d = K.element(cm["d"])
        rg = K.element(cm["relative_gen"])
    fdeg = pu.degree(sp)
    if 2 * fdeg != K.degree:
        raise ValidationError("subfield degree must be half the field degree")
    if any(c.denominator != 1 for c in sp) or sp[-1] != 1:
        raise ValidationError("subfield polynomial must be monic integral")
    pu.check_irreducible(sp)
    # gen satisfies the subfield polynomial inside K
    acc = K.zero
    for i, c in enumerate(sp):
        acc = acc + K.from_rational(c) * gen ** i
    if not acc.is_zero():
        raise ValidationError("subfield_gen does not satisfy subfield_poly")
    if not (rg * rg + d).is_zero():
        raise ValidationError("relative_gen^2 + d must vanish exactly")
    st = CmStructure(sp, gen, d, rg)
    if subfield_coordinates(K, st, d) is None:
        raise ValidationError("d does not lie in the declared subfield")
    return st


def subfield_coordinates(K: NumberField, cm: CmStructure, x: FieldElement):
    """Coordinates of x in the basis g^i of F, or None when x is not in F."""
    fdeg = pu.degree(cm.subfield_poly)
    basis = [cm.subfield_gen ** i for i in range(fdeg)]
    return pu.solve([[b.coeffs[i] for b in basis] for i in range(K.degree)],
                    x.coeffs, Fraction(0))


def _cm_split_solver(K: NumberField, cm: CmStructure):
    """The two rational d x d projections of the F + relative_gen*F split:
    gamma = P_gamma x and delta = P_delta x in power-basis coordinates.
    Built once and cached on the field."""
    cached = getattr(K, "_cm_split_cache", None)
    if cached is not None:
        return cached
    fdeg = pu.degree(cm.subfield_poly)
    basis = [cm.subfield_gen ** i for i in range(fdeg)]
    basis += [cm.relative_gen * b for b in basis]
    d = K.degree
    mat = [[basis[j].coeffs[i] for j in range(d)] for i in range(d)]
    inv = pu.invert(mat, Fraction(1), Fraction(0))
    if inv is None:
        raise ValidationError("CM basis is degenerate")
    # F-coordinates: rows 0..fdeg-1 of inv for gamma, the rest for delta
    K._cm_split_cache = tuple(
        [[sum(basis[i].coeffs[k] * inv[off + i][j] for i in range(fdeg))
          for j in range(d)] for k in range(d)] for off in (0, fdeg))
    return K._cm_split_cache


def split_cm(K: NumberField, cm: CmStructure, x: FieldElement):
    """Exact splitting x = gamma + relative_gen * delta with gamma, delta in F."""
    return tuple(K.element([sum(a * c for a, c in zip(row, x.coeffs))
                            for row in proj])
                 for proj in _cm_split_solver(K, cm))


def cm_conjugate(K: NumberField, cm: CmStructure, x: FieldElement) -> FieldElement:
    """The complex conjugation automorphism gamma + s delta -> gamma - s delta,
    that is 2 gamma - x.

    For a CM field this automorphism commutes with every embedding into the
    complex numbers, so conj(sigma(x)) = sigma(cm_conjugate(x)) exactly."""
    gamma, _ = split_cm(K, cm, x)
    return K.element([2 * g - c for g, c in zip(gamma.coeffs, x.coeffs)])


def fast_norm(K: NumberField, x: FieldElement) -> Fraction:
    """field_norm through the cached norm form (same value, fewer steps)."""
    return norm_form(K).eval_exact(x.coeffs)


# -- spec-level wrappers (module functions mirroring the operation names) ------

def normalized_abs(x: FieldElement, place: ArchimedeanPlace, max_width=None) -> RInt:
    return x.field.normalized_abs(x, place, max_width=max_width)


def field_norm(x: FieldElement) -> Fraction:
    return x.field.field_norm(x)


def is_cm(field: NumberField) -> bool:
    """True exactly when K is a totally imaginary quadratic extension of a
    totally real field with a totally positive d; needs the declared
    presentation for degree > 2."""
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
    if len(pu.isolate_real_roots(cm.subfield_poly)) != pu.degree(cm.subfield_poly):
        return False
    # d totally positive in F: evaluate d's F-coordinates at every real root
    coords = subfield_coordinates(field, cm, cm.d)
    if coords is None:
        return False
    dpoly = pu.poly(coords)
    for iso in pu.isolate_real_roots(cm.subfield_poly):
        reg = iso
        while True:
            val = pu.peval(dpoly, reg)
            s = val.sign()
            if s != 0:
                break
            reg = pu.refine_root(cm.subfield_poly, reg, reg.width / 2 ** 20)
            if reg.width < Fraction(1, 2 ** 4000):
                raise PrecisionExhausted("sign of d undecidable")
        if s < 0:
            return False
    return True


def norm_form(K: NumberField) -> "pu.MultiPoly":
    """The norm as a polynomial in the power-basis coordinates.

    Symbolic determinant of the multiplication matrix; integer coefficients
    since the minimal polynomial is integral.  Cached on the field.
    """
    cached = getattr(K, "_norm_form", None)
    if cached is not None:
        return cached
    xs = [pu.MultiPoly.variable(K.degree, i) for i in range(K.degree)]
    nf_poly = pu.cofactor_det(K.mult_matrix(xs))
    K._norm_form = nf_poly
    return nf_poly


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
    return pu.determinant(gram, Fraction(0))


# -- Pell helper ----------------------------------------------------------------

def pell_fundamental_unit(d: int):
    """Fundamental unit coefficients (a, b) with a + b*sqrt(d) for Z[sqrt(d)].

    Continued fraction expansion of sqrt(d); solves a^2 - d b^2 = +-1 with
    the smallest b > 0.  Only for nonsquare d > 1.
    """
    import math
    if d <= 1 or math.isqrt(d) ** 2 == d:
        raise ValidationError("need a nonsquare d > 1")
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h0, h1 = 1, a0
    k0, k1 = 0, 1
    if h1 * h1 - d * k1 * k1 in (1, -1):
        return h1, k1
    for _ in range(10_000):
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if h1 * h1 - d * k1 * k1 in (1, -1):
            return h1, k1
    raise PrecisionExhausted("Pell expansion did not close")


# -- balancing by units -----------------------------------------------------------

def balance_by_unit(field: NumberField, values: Sequence[FieldElement],
                    m: int = 1, radius: int = 16) -> BalanceResult:
    """Find xi in the m-th powers of the unit group making xi*a nearly flat.

    values: one field element per place; the i-th is read at the i-th place,
    so the tuple (|a_i|_i) should multiply to 1 (checked loosely).  The
    search runs over unit exponent vectors in the box |e|_inf <= radius and
    minimizes max_i max(|xi a_i|_i, |xi a_i|_i^-1); ties break toward the
    lexicographically smallest exponent vector.
    """
    places = field.places()
    r = len(places)
    if len(values) != r:
        raise ValidationError(f"need one value per place ({r})")
    units = field.units
    if not units:
        raise NoUnits("field has unit rank 0")
    if m < 1:
        raise ValidationError("m must be a positive integer")

    width = Fraction(1, 2 ** 60)
    log_a = [float(field.log_abs(v, places[i], target_width=width).mid)
             for i, v in enumerate(values)]
    log_u = [[float(field.log_abs(u, pl, target_width=width).mid)
              for pl in places] for u in units]

    import math
    best_key = None
    best_e = None
    for e in itertools.product(range(-radius, radius + 1), repeat=len(units)):
        worst = 0.0
        for i in range(r):
            s = log_a[i]
            for j, ej in enumerate(e):
                s += m * ej * log_u[j][i]
            worst = max(worst, abs(s))
        key = (round(worst, 12), e)
        if best_key is None or key < best_key:
            best_key = key
            best_e = e

    xi = field.one
    for u, ej in zip(units, best_e):
        xi = xi * u ** (m * ej)
    # certified bound: max over places of max(enc.hi, 1/enc.lo)
    bound = Fraction(0)
    for i, v in enumerate(values):
        enc = field.normalized_abs(xi * v, places[i], max_width=Fraction(1, 2 ** 60))
        if enc.lo <= 0:
            raise PrecisionExhausted("balanced value not separated from zero")
        bound = max(bound, enc.hi, 1 / enc.lo)
    return BalanceResult(xi=xi, bound=bound, exponents=best_e, radius=radius)


# -- unit closure classification ---------------------------------------------------

def _charpoly(K: NumberField, x: FieldElement) -> pu.Poly:
    """Characteristic polynomial of multiplication by x (roots = embeddings).

    Faddeev-LeVerrier: matrix products and traces, not an elimination."""
    d = K.degree
    M = K.mult_matrix(x)
    coeffs = [Fraction(1)]  # leading
    A = [row[:] for row in M]
    for k in range(1, d + 1):
        tr = sum(A[i][i] for i in range(d))
        c = -tr / k
        coeffs.append(c)
        if k < d:
            for i in range(d):
                A[i][i] += c
            A = [[sum(M[i][t] * A[t][j] for t in range(d)) for j in range(d)]
                 for i in range(d)]
    return pu.poly(list(reversed(coeffs)))


def _squarefree_part(p: pu.Poly) -> pu.Poly:
    g = pu.pgcd(p, pu.pderiv(p))
    if pu.degree(g) == 0:
        return p
    q, _ = pu.pdivmod(p, g)
    return q


def modulus_is_one(K: NumberField, x: FieldElement, place: ArchimedeanPlace) -> bool:
    """Exact test |sigma_v(x)| = 1 at a complex place.

    |z| = 1 iff 1/z equals conj(z); both are roots of the squarefree part of
    the characteristic polynomial of x (or its reverse), and distinct roots
    can be separated, so the identity of the two roots is decidable.
    """
    if place.is_real:
        raise ValidationError("modulus_is_one is for complex places")
    if x.is_zero():
        return False
    chi = _squarefree_part(_charpoly(K, x))
    rev = pu.reversed_poly(chi)
    g = pu.pgcd(chi, rev)
    if pu.degree(g) == 0:
        return False  # no root of chi has its inverse among the roots
    # decide whether 1/sigma(x) and conj(sigma(x)) are the same root of chi
    bits = max(96, place.working_precision)
    for _ in range(8):
        box = K.embed(x, K.places(bits)[place.index])
        msq = box.modulus_sq()
        if not msq.contains(1):
            return False
        try:
            inv_box = CBox(box.re / msq, -(box.im / msq))  # 1/z = conj z / |z|^2
        except ZeroDivisionError:
            bits *= 2
            continue
        conj_box = box.conj()
        regions = _all_root_regions(chi, bits)
        hit_inv = [i for i, reg in enumerate(regions) if _region_overlaps(reg, inv_box)]
        hit_conj = [i for i, reg in enumerate(regions) if _region_overlaps(reg, conj_box)]
        if len(hit_inv) == 1 and len(hit_conj) == 1:
            return hit_inv == hit_conj
        bits *= 2
    raise PrecisionExhausted("modulus-one test did not separate the roots")


def _all_root_regions(p: pu.Poly, bits: int):
    width = Fraction(1, 2 ** bits)
    regs = [("r", pu.refine_root(p, iso, width)) for iso in pu.isolate_real_roots(p)]
    for b in pu.isolate_complex_roots(p, bits):
        regs.append(("c", b))
        regs.append(("cbar", CBox(b.re, -b.im)))
    return regs


def _region_overlaps(reg, box: CBox) -> bool:
    kind, r = reg
    if kind == "r":
        return r.overlaps(box.re) and box.im.contains(0)
    return r.overlaps(box)


def is_root_of_unity(K: NumberField, x: FieldElement) -> bool:
    """Exact torsion test; orders are bounded since phi(N) <= degree <= 8."""
    if x.is_zero():
        return False
    acc = K.one
    for _ in range(1, 31):
        acc = acc * x
        if acc == K.one:
            return True
    return False


def unit_closure_classify(field: NumberField, target_place: int,
                          precision_bits: int = DEFAULT_PRECISION,
                          max_denominator: int = 10 ** 6) -> UnitClosureReport:
    """Classify the closure of the unit projections into the target completion.

    Rank-2 unit groups project discretely; a real target place with rank >= 2
    closes up to the positive reals; at a complex place the shape follows
    from exact modulus-one tests plus integer-relation detection on the
    (log modulus, argument) vectors.  Detection beyond the denominator bound
    raises Inconclusive rather than guessing; a genuine spiral candidate is
    reported as such, never asserted to exist.
    """
    places = field.places(precision_bits)
    if not 0 <= target_place < len(places):
        raise ValidationError("no such place")
    pl = places[target_place]
    r = len(places)
    units = list(field.units)

    logvecs = _log_arg_vectors(field, units, pl, precision_bits)

    if r <= 2:
        return UnitClosureReport(target_place, "discrete", logvecs, [], None,
                                 1.0 / max_denominator, precision_bits,
                                 notes="unit rank <= 1 projects discretely")
    if pl.is_real:
        gap = _ray_gap_statistic(field, units, pl)
        return UnitClosureReport(target_place, "positive_reals", logvecs, [], gap,
                                 1.0 / max_denominator, precision_bits,
                                 notes="real completion, rank >= 2")
    # complex target place
    try:
        if is_cm(field):
            gap = _ray_gap_statistic(field, units, pl)
            return UnitClosureReport(target_place, "positive_reals", logvecs, [],
                                     gap, 1.0 / max_denominator, precision_bits,
                                     notes="CM field: unit moduli fill rays")
    except MissingCmStructure:
        pass

    on_circle = [modulus_is_one(field, u, pl) for u in units]
    moving = [u for u, flag in zip(units, on_circle) if not flag]
    relations = []
    if not moving:
        rank = 0
    else:
        relations = _modulus_relations(field, moving, pl, max_denominator,
                                       precision_bits)
        rank = len(moving) - len(relations)

    if rank <= 1:
        # moduli are discrete; density on the circle fiber decides
        fiber = [u for u, flag in zip(units, on_circle) if flag]
        for rel in relations:
            w = field.one
            for u, e in zip(moving, rel):
                w = w * u ** int(e)
            fiber.append(w)
        if any(not is_root_of_unity(field, w) for w in fiber):
            return UnitClosureReport(target_place, "circle", logvecs, relations,
                                     None, 1.0 / max_denominator, precision_bits,
                                     notes="moduli discrete, circle fiber dense")
        raise Inconclusive("discrete projection at rank >= 2 contradicts the "
                           "unit theorem; relation detection is suspect")
    # moduli dense in R
    if r > 3:
        return UnitClosureReport(target_place, "full", logvecs, relations, None,
                                 1.0 / max_denominator, precision_bits,
                                 notes="dense moduli, more than three places")
    # r == 3: spiral functional search
    found = _spiral_functional(field, units, pl, max_denominator, precision_bits)
    if found is not None:
        return UnitClosureReport(target_place, "spiral_candidate", logvecs,
                                 relations, None, 1.0 / max_denominator,
                                 precision_bits,
                                 notes=f"functional {found} at detection bound")
    return UnitClosureReport(target_place, "full", logvecs, relations, None,
                             1.0 / max_denominator, precision_bits,
                             notes="no functional up to the detection bound")


def _log_arg_vectors(field, units, pl, precision_bits):
    out = []
    for u in units:
        if pl.is_real:
            lg = float(field.log_abs(u, pl, target_width=Fraction(1, 2 ** 60)).mid)
            emb = field.embed(u, pl, max_width=Fraction(1, 2 ** 60))
            arg = 0.0 if emb.lo > 0 else 3.141592653589793
            out.append((lg, arg))
        else:
            lg = float(field.log_abs(u, pl, target_width=Fraction(1, 2 ** 60)).mid)
            box = field.embed(u, pl, max_width=Fraction(1, 2 ** 60))
            out.append((lg / 2.0, _arg_float(box, precision_bits)))
    return out


def _arg_float(box: CBox, precision_bits: int) -> float:
    """Midpoint argument of a complex box; values on the negative real axis
    (where atan2 enclosures break down) report pi."""
    try:
        return float(atan2_rint(box.im, box.re, prec=precision_bits + 64).mid)
    except ValueError:
        return 3.141592653589793


def _ray_gap_statistic(field, units, pl, box: int = 30, window: float = 1.0):
    """Smallest positive gap between log-modulus projections in [-window, window].

    Exponent vectors range over |e|_inf <= box.  A discrete projection keeps
    this bounded below by the generator length no matter the box; a dense one
    drives it toward zero, so a small value witnesses non-discreteness.
    """
    logs = [float(field.log_abs(u, pl, target_width=Fraction(1, 2 ** 60)).mid)
            for u in units]
    vals = set()
    for e in itertools.product(range(-box, box + 1), repeat=len(units)):
        s = sum(ej * lj for ej, lj in zip(e, logs))
        if -window <= s <= window:
            vals.add(s)
    pts = sorted(vals)
    if len(pts) < 2:
        return float("inf")
    return min(b - a for a, b in zip(pts, pts[1:]) if b > a)


def _as_mp(r: RInt):
    """Midpoint of an enclosure at the current mpmath precision."""
    return mpmath.mpf(r.mid.numerator) / mpmath.mpf(r.mid.denominator)


def _modulus_relations(field, moving, pl, max_denominator, precision_bits):
    """Verified integer relations among the nonzero log moduli.

    Candidates come from PSLQ on high-precision midpoints; each candidate is
    accepted only if the corresponding unit product has modulus exactly one
    (an exact algebraic test), so no relation is ever taken on faith.
    """
    if len(moving) == 1:
        return []
    mpmath.mp.prec = max(256, precision_bits)
    vec = [_as_mp(field.log_abs(u, pl, target_width=Fraction(1, 2 ** 200)))
           for u in moving]
    rels = []
    cand = mpmath.pslq(vec, maxcoeff=max_denominator, maxsteps=10 ** 5)
    if cand is not None:
        w = field.one
        for u, e in zip(moving, cand):
            w = w * u ** int(e)
        if modulus_is_one(field, w, pl):
            rels.append(tuple(int(c) for c in cand))
    return rels


def _spiral_functional(field, units, pl, max_denominator, precision_bits):
    """Search for (m1, m2, n) with p*x_j + n*y_j/(2pi) = m_j for a real p.

    Existence at the detection bound marks the closure a spiral candidate.
    Only the two-unit case can occur here (three places).
    """
    if len(units) != 2:
        return None
    width = Fraction(1, 2 ** 200)
    x = [field.log_abs(u, pl, target_width=width) for u in units]
    y = []
    for u in units:
        box = field.embed(u, pl, max_width=width)
        y.append(atan2_rint(box.im, box.re, prec=precision_bits + 128))
    two_pi = pi_rint(prec=precision_bits + 128) * 2
    yhat = [yy / two_pi for yy in y]
    mpmath.mp.prec = max(320, precision_bits)
    target = [_as_mp(x[1]), -_as_mp(x[0]),
              -(_as_mp(yhat[0]) * _as_mp(x[1]) - _as_mp(yhat[1]) * _as_mp(x[0]))]
    cand = mpmath.pslq(target, maxcoeff=max_denominator, maxsteps=10 ** 5)
    if cand is None:
        return None
    m1, m2, n = (int(c) for c in cand)
    if n == 0:
        return None  # that would be a modulus relation, handled upstream
    return (m1, m2, n)
