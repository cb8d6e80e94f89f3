"""Decomposable homogeneous forms over the places of a number field.

A form is, per archimedean place, a product of m linearly independent
linear forms with coefficients in K (so it is locally K-decomposable by
construction) times an optional scalar in K.  The module validates forms,
tests rationality, carries the bridge to group components (rows of the
factor matrix rescaled to determinant one), reduces superfluous variables,
scans exact values on boxes in Z[theta]^n, reports value density over a
window, checks the CM integrality obstruction, and summarizes the
two-place norm-product spectrum.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from . import polyutil as pu
from .decomp import MatrixK
from .errors import (ArityMismatch, CapExceeded, CoefficientsNotInF,
                     DependentFactors, HypothesisFails, NotCm,
                     SearchExhausted, SingularCoefficientMatrix,
                     ValidationError, WrongPlaceCount)
from .intervals import RInt
from .numfield import (FieldElement, NumberField, cm_conjugate, fast_norm,
                       is_cm, norm_form, order_discriminant, split_cm,
                       subfield_coordinates)
from .strata import OrbitInput

EXACT_POINT_CAP = 250_000


@dataclass
class DecomposableForm:
    """Per place: m independent K-linear forms in n variables and a scalar."""
    field: NumberField
    n: int
    m: int
    factors: tuple          # factors[v][i] = tuple of n FieldElements
    scalars: tuple          # one FieldElement per place

    @property
    def r(self) -> int:
        return len(self.factors)

    def factor_value(self, v: int, i: int, z) -> FieldElement:
        acc = self.field.zero
        for c, zi in zip(self.factors[v][i], z):
            if not c.is_zero() and not zi.is_zero():
                acc = acc + c * zi
        return acc

    def value(self, v: int, z) -> FieldElement:
        acc = self.scalars[v]
        for i in range(self.m):
            acc = acc * self.factor_value(v, i, z)
        return acc

    def expanded(self, v: int) -> dict:
        """Exact monomial expansion of the place-v product polynomial."""
        terms = {tuple([0] * self.n): self.scalars[v]}
        for i in range(self.m):
            new = {}
            for mono, coef in terms.items():
                for j, c in enumerate(self.factors[v][i]):
                    if c.is_zero():
                        continue
                    m2 = list(mono)
                    m2[j] += 1
                    key = tuple(m2)
                    cur = new.get(key)
                    new[key] = c * coef if cur is None else cur + c * coef
            terms = {k: v2 for k, v2 in new.items() if not v2.is_zero()}
        return terms


def make_form(field: NumberField, per_place_factors, scalars=None) -> DecomposableForm:
    """Validate and build; rejects dependent factor lists and shape mismatches."""
    r = field.n_places
    if len(per_place_factors) != r:
        raise ArityMismatch(f"need factor lists for all {r} places")
    m = len(per_place_factors[0])
    if m == 0:
        raise ArityMismatch("need at least one factor")
    n = len(per_place_factors[0][0])
    factors = []
    for v, lst in enumerate(per_place_factors):
        if len(lst) != m:
            raise ArityMismatch("factor counts differ between places")
        conv = []
        for fac in lst:
            if len(fac) != n:
                raise ArityMismatch("factor arities differ")
            conv.append(tuple(x if isinstance(x, FieldElement)
                              else field.from_rational(x) for x in fac))
        if len(pu.echelon(conv, n)[1]) != m:
            raise DependentFactors(f"place {v}: factors are dependent")
        factors.append(tuple(conv))
    if m > n:
        raise ArityMismatch("more factors than variables cannot be independent")
    if scalars is None:
        scalars = [field.one] * r
    scalars = [s if isinstance(s, FieldElement) else field.from_rational(s)
               for s in scalars]
    if len(scalars) != r or any(s.is_zero() for s in scalars):
        raise ValidationError("need one nonzero scalar per place")
    return DecomposableForm(field, n, m, tuple(factors), tuple(scalars))


def is_rational(form: DecomposableForm) -> bool:
    """True iff the expanded place polynomials are proportional over K*."""
    base = form.expanded(0)
    base_items = sorted(base.items())
    for v in range(1, form.r):
        cur = form.expanded(v)
        if set(cur) != set(base):
            return False
        ratio = None
        for mono, coef in base_items:
            q = cur[mono] / coef
            if ratio is None:
                ratio = q
            elif q != ratio:
                return False
    return True


def form_to_group(form: DecomposableForm):
    """Scalars and SL_n(K) components with f_v(x) = alpha_v * f0(g_v x).

    g_v has the factor coefficients as rows, the first row divided by the
    determinant; the identity is verified by exact expansion.  The scalar
    normalization is one valid choice among the torus orbit of choices.
    """
    if form.m != form.n:
        raise ValidationError("group bridge needs as many factors as variables")
    f = form.field
    alphas = []
    comps = []
    for v in range(form.r):
        rows = [list(form.factors[v][i]) for i in range(form.m)]
        mat = MatrixK(f, rows)
        det = mat.det()
        if det.is_zero():
            raise SingularCoefficientMatrix(f"place {v}")
        inv = det.inverse()
        rows[0] = [inv * x for x in rows[0]]
        g = MatrixK(f, rows)
        alpha = form.scalars[v] * det
        alphas.append(alpha)
        comps.append(g)
        # exact identity: expand alpha * f0(g x) and compare
        check = make_form(f, [[tuple(g.rows[i]) for i in range(form.n)]
                              for _ in range(form.r)],
                          scalars=[alpha] * form.r)
        if check.expanded(0) != form.expanded(v):
            raise ValidationError("group bridge identity failed to verify")
    return alphas, OrbitInput(tuple(comps))


def reduce_variables(form: DecomposableForm, seed: int = 0,
                     budget: int = 10_000) -> Tuple[DecomposableForm, list]:
    """Cut the variable count down to the factor count.

    Requires some factor at one place to be non-proportional to every
    factor at another place (verified exactly); searches small integer
    matrices until all per-place factor images stay independent and the
    designated non-proportionality survives.  Returns the reduced form and
    the substitution matrix (rows = images of the coordinate functionals).
    """
    f = form.field
    if form.m == form.n:
        ident = [[f.one if i == j else f.zero for j in range(form.n)]
                 for i in range(form.m)]
        return form, ident
    witness = _nonproportional_witness(form)
    if witness is None:
        raise HypothesisFails(
            "every factor is proportional to a factor at every other place")
    (pi, fi, pj) = witness
    rng = random.Random(seed)
    for _ in range(budget):
        phi = [[f.from_rational(rng.randint(-3, 3)) for _ in range(form.n)]
               for _ in range(form.m)]
        new_factors = []
        ok = True
        for v in range(form.r):
            lst = [tuple(_apply_phi(f, phi, fac)) for fac in form.factors[v]]
            if len(pu.echelon(lst, form.m)[1]) != form.m:
                ok = False
                break
            new_factors.append(lst)
        if not ok:
            continue
        red_w = new_factors[pi][fi]
        if any(_proportional(f, red_w, fac) for fac in new_factors[pj]):
            continue
        reduced = make_form(f, new_factors, scalars=list(form.scalars))
        return reduced, phi
    raise SearchExhausted(f"no valid substitution in {budget} draws")


def _apply_phi(field, phi, fac):
    out = []
    for i in range(len(phi)):
        acc = field.zero
        for j, c in enumerate(fac):
            if not phi[i][j].is_zero() and not c.is_zero():
                acc = acc + phi[i][j] * c
        out.append(acc)
    return out


def _proportional(field, a, b) -> bool:
    """Whether vectors a, b over K are proportional (b = lambda a)."""
    ratio = None
    for x, y in zip(a, b):
        xz, yz = x.is_zero(), y.is_zero()
        if xz != yz:
            return False
        if xz:
            continue
        q = y / x
        if ratio is None:
            ratio = q
        elif q != ratio:
            return False
    return True


def _nonproportional_witness(form: DecomposableForm):
    for pi in range(form.r):
        for pj in range(form.r):
            if pi == pj:
                continue
            for fi, fac in enumerate(form.factors[pi]):
                if not any(_proportional(form.field, fac, other)
                           for other in form.factors[pj]):
                    return (pi, fi, pj)
    return None


# -- scans -----------------------------------------------------------------------


@dataclass
class FormScan:
    """Lattice points of Z[theta]^n with coefficient height <= H.

    points is an integer array of shape (N, n*deg): the power-basis
    coefficients of the n coordinates, concatenated.  mode records whether
    the box was enumerated completely or sampled deterministically (the
    sampled point set is always a subset of the box, so coverage statistics
    are conservative).  degenerate marks points where some factor vanishes
    at some place (exact test).
    """
    form: DecomposableForm
    height: int
    points: np.ndarray
    mode: str                    # "full" | "sampled"
    degenerate: np.ndarray       # bool mask
    seed: Optional[int] = None

    @property
    def npoints(self) -> int:
        return int(self.points.shape[0])

    def coordinate(self, idx: int):
        """The idx-th point as a tuple of field elements."""
        deg = self.form.field.degree
        row = self.points[idx]
        return tuple(self.form.field.element([int(c) for c in
                                              row[i * deg:(i + 1) * deg]])
                     for i in range(self.form.n))

    def exact_values(self, idx: int):
        z = self.coordinate(idx)
        return [self.form.value(v, z) for v in range(self.form.r)]

    def numeric_values(self, v: int) -> np.ndarray:
        """Midpoint embeddings of the place-v values for all points.

        Real places give the signed value, complex places the squared
        modulus (the normalized absolute value scale)."""
        return _numeric_form_values(self.form, self.points, v)

    def nonzero_mask(self) -> np.ndarray:
        return ~self.degenerate


def scan_values(form: DecomposableForm, height: int,
                sample: Optional[int] = None, seed: int = 0,
                include: Optional[FormScan] = None,
                cap: int = EXACT_POINT_CAP) -> FormScan:
    """Enumerate (or deterministically sample) the height box.

    Full enumeration refuses boxes larger than cap (CapExceeded); pass
    sample=N to draw N distinct points instead.  include merges a previous
    scan's points first, so ladders of scans are nested by construction.
    """
    if height < 1:
        raise ValidationError("height must be positive")
    deg = form.field.degree
    dim = form.n * deg
    side = 2 * height + 1
    total = side ** dim
    if sample is None:
        if total > cap:
            raise CapExceeded(
                f"box of {total} points exceeds the cap {cap}; pass sample=")
        pts = _box(height, dim)
        pts = pts[np.any(pts != 0, axis=1)]
        mode = "full"
    else:
        rng = np.random.default_rng(seed)
        want = sample
        chunks = []
        seen = set()
        if include is not None:
            for row in include.points:
                seen.add(tuple(int(x) for x in row))
        guard = 0
        while sum(len(c) for c in chunks) < want:
            draw = rng.integers(-height, height + 1, size=(want, dim),
                                dtype=np.int64)
            fresh = []
            for row in draw:
                t = tuple(int(x) for x in row)
                if t in seen or all(x == 0 for x in t):
                    continue
                seen.add(t)
                fresh.append(row)
            if fresh:
                chunks.append(np.array(fresh, dtype=np.int64))
            guard += 1
            if guard > 200:
                raise SearchExhausted("sampling stalled; box too small?")
        pts = np.concatenate(chunks, axis=0)[:want]
        if include is not None and include.npoints:
            pts = np.concatenate([include.points, pts], axis=0)
        mode = "sampled"
    degenerate = _degenerate_mask(form, pts)
    return FormScan(form, height, pts, mode, degenerate,
                    seed=None if sample is None else seed)


def _box(height: int, dim: int) -> np.ndarray:
    """Every point of {-height..height}^dim as an (N, dim) int64 array."""
    grids = np.meshgrid(*[np.arange(-height, height + 1)] * dim, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def _int_image(field: NumberField, factors, pts: np.ndarray, norm: bool = False):
    """Exact integer image of an integer point batch under K-linear factors.

    pts is an (N, n*deg) array of power-basis coefficients of n coordinates.
    A factor (c_1, ..., c_n) maps z to D * (the power-basis coordinates of
    c_1 z_1 + ... + c_n z_n) through the integer matrix D [M(c_1) ... M(c_n)],
    with M from mult_matrix and D its least common denominator.  Returns an
    iterator over the (deg, N) images, formed one at a time to keep one
    image in memory, and the list of the D; with norm=True, the
    length-N product of the field norms of those images and the product of
    the D^deg.

    The dtype follows an a-priori bound B on every intermediate: the
    largest row sum of |D M| times max(1, max|pts|) for an image (so a scan
    merged from a larger height is covered), sum |c| * B^deg over the norm
    form's coefficients for a norm, and the product of those for a product
    of norms.  Below 2^63 the arrays are int64, otherwise Python-int object
    arrays; the numpy expressions are the same on both.
    """
    deg = field.degree
    maps = []
    for fac in factors:
        mats = [field.mult_matrix(c) for c in fac]
        den = math.lcm(*(x.denominator for m in mats for row in m for x in row))
        maps.append(([[int(x * den) for m in mats for x in m[t]]
                      for t in range(deg)], den))
    top = max(1, -int(pts.min()), int(pts.max())) if pts.size else 1
    bounds = [top * max(sum(map(abs, row)) for row in mat) for mat, _ in maps]
    if norm:
        nform = norm_form(field)
        csum = sum(abs(c) for c in nform.terms.values())
        bounds = [math.prod(csum * b ** deg for b in bounds)]
    dtype = np.int64 if max(bounds) < 2 ** 63 else object
    pts = pts.astype(dtype, copy=False)
    images = (np.array(mat, dtype=dtype) @ pts.T for mat, _ in maps)
    dens = [den for _, den in maps]
    if not norm:
        return images, dens
    acc = None
    for img in images:
        cur = nform.eval_int_numpy(list(img))
        acc = cur if acc is None else acc * cur
    return acc, math.prod(den ** deg for den in dens)


def _degenerate_mask(form: DecomposableForm, pts: np.ndarray) -> np.ndarray:
    """Exact vanishing test of any factor at any place (integer arithmetic)."""
    bad = np.zeros(pts.shape[0], dtype=bool)
    for v in range(form.r):
        for coords in _int_image(form.field, form.factors[v], pts)[0]:
            bad |= np.all(coords == 0, axis=0)
    return bad


def _numeric_form_values(form: DecomposableForm, pts: np.ndarray, v: int) -> np.ndarray:
    f = form.field
    place = f.places()[v]
    basis = f.float_basis(place)
    acc = None
    for coords, den in zip(*_int_image(f, form.factors[v], pts)):
        coords = np.ascontiguousarray(coords.T, dtype=np.float64)
        if place.is_real:
            cur = coords @ basis / den
        else:
            cur = coords @ basis.real / den + 1j * (coords @ basis.imag / den)
        acc = cur if acc is None else acc * cur
    sval = f.float_embed(form.scalars[v], place)
    return acc * sval if place.is_real else np.abs(acc * sval) ** 2


def window_scan(form: DecomposableForm, height: int, window,
                pad: float = 1e-9) -> FormScan:
    """Every box point whose value vector lands in the window, enumerated
    exactly without touching the rest of the box.

    Binary forms over totally real fields only.  For each first coordinate
    the admissible second-coordinate embeddings solve per-place quadratic
    inequalities |f_v| <= W_v, cutting out at most two intervals per place;
    the integer points of the resulting parallelepipeds are enumerated
    directly.  Coverage statistics on the result equal full-box coverage.
    """
    field = form.field
    if form.n != 2:
        raise ValidationError("window enumeration handles binary forms")
    places = field.places()
    if any(not p.is_real for p in places):
        raise ValidationError("window enumeration needs a totally real field")
    r = len(places)
    if len(window) != r:
        raise ValidationError("one window interval per place")
    if form.m != 2:
        raise ValidationError("window enumeration handles two factors")
    scalar_abs = [abs(field.float_embed(s, places[v]))
                  for v, s in enumerate(form.scalars)]
    if any(s == 0 for s in scalar_abs):
        raise ValidationError("zero scalar")
    deg = field.degree
    phi = np.array([field.float_basis(pl) for pl in places])
    Minv = np.linalg.inv(phi)
    c_all = _box(height, deg)
    x_all = c_all @ phi.T                       # (N1, r): embeddings of z1
    a = np.zeros((r, 2))
    b = np.zeros((r, 2))
    for v in range(r):
        for i in range(2):
            alpha, beta = form.factors[v][i]
            a[v, i] = field.float_embed(alpha, places[v])
            b[v, i] = field.float_embed(beta, places[v])
    ybound = float(np.abs(phi).sum(axis=1).max()) * height * (1 + 1e-9)

    points = []
    n1 = c_all.shape[0]
    intervals = np.full((n1, r, 2, 2), np.nan)
    for v in range(r):
        wlo, whi = window[v]
        wmax = (max(abs(wlo), abs(whi)) / scalar_abs[v]) * (1 + pad) + pad
        p1 = a[v, 0] * x_all[:, v]
        p2 = a[v, 1] * x_all[:, v]
        iv = _abs_quadratic_regions(p1, b[v, 0], p2, b[v, 1], wmax, ybound)
        intervals[:, v, :, :] = iv
    import itertools as _it
    for combo in _it.product(range(2), repeat=r):
        sel = np.stack([intervals[:, v, combo[v], :] for v in range(r)],
                       axis=1)                      # (N1, r, 2)
        valid = ~np.isnan(sel[:, :, 0]).any(axis=1)
        if not valid.any():
            continue
        idxs = np.nonzero(valid)[0]
        lows = sel[idxs, :, 0]
        highs = sel[idxs, :, 1]
        # corners of the y-box map to d-space; the integer bounding ranges
        corners = []
        for mask in _it.product((0, 1), repeat=r):
            yc = np.where(np.array(mask)[None, :] > 0, highs, lows)
            corners.append(yc @ Minv.T)
        corners = np.stack(corners, axis=0)         # (2^r, Nv, deg)
        dlo = np.ceil(corners.min(axis=0) - 1e-9).astype(np.int64)
        dhi = np.floor(corners.max(axis=0) + 1e-9).astype(np.int64)
        dlo = np.maximum(dlo, -height)
        dhi = np.minimum(dhi, height)
        for t in np.nonzero(np.all(dhi >= dlo, axis=1))[0]:
            ranges = [np.arange(dlo[t, k], dhi[t, k] + 1) for k in range(deg)]
            mesh = np.stack([g.ravel() for g in
                             np.meshgrid(*ranges, indexing="ij")], axis=1)
            y = mesh @ phi.T
            keep = np.all((y >= lows[t][None, :] - 1e-9)
                          & (y <= highs[t][None, :] + 1e-9), axis=1)
            if not keep.any():
                continue
            c_row = c_all[idxs[t]]
            for d_row in mesh[keep]:
                points.append(tuple(c_row) + tuple(int(x) for x in d_row))
    if points:
        pts = np.array(sorted(set(points)), dtype=np.int64)
        pts = pts[np.any(pts != 0, axis=1)]
    else:
        pts = np.zeros((0, 2 * deg), dtype=np.int64)
    # final exact-window filter happens in density_report's mask; the pad
    # above only ever adds candidates, never loses them
    degenerate = _degenerate_mask(form, pts) if len(pts) else \
        np.zeros(0, dtype=bool)
    return FormScan(form, height, pts, "window-complete", degenerate)


def _abs_quadratic_regions(p1, q1, p2, q2, wmax, ybound):
    """Per row: up to two intervals where |(p1 + q1 y)(p2 + q2 y)| <= wmax,
    intersected with |y| <= ybound.  Shape (N, 2, 2); NaN marks absent."""
    n = p1.shape[0]
    out = np.full((n, 2, 2), np.nan)
    aa = q1 * q2 * np.ones(n)
    bb = p1 * q2 + p2 * q1
    cc = p1 * p2
    quad = np.abs(aa) > 1e-300
    lin = (~quad) & (np.abs(bb) > 1e-300)
    const = (~quad) & (~lin)
    # constant: whole line when |c| <= w
    ok = const & (np.abs(cc) <= wmax)
    out[ok, 0, 0] = -ybound
    out[ok, 0, 1] = ybound
    # linear: |b y + c| <= w
    if lin.any():
        lo = (-wmax - cc[lin]) / bb[lin]
        hi = (wmax - cc[lin]) / bb[lin]
        l = np.minimum(lo, hi)
        h = np.maximum(lo, hi)
        l = np.maximum(l, -ybound)
        h = np.minimum(h, ybound)
        good = l <= h
        idx = np.nonzero(lin)[0][good]
        out[idx, 0, 0] = l[good]
        out[idx, 0, 1] = h[good]
    if quad.any():
        qa = aa[quad]
        qb = bb[quad]
        qc = cc[quad]
        # g(y) = qa y^2 + qb y + qc; region between the roots of g = +-w
        sign = np.sign(qa)
        # normalize to an up-opening parabola: g' = g * sign
        # region |g| <= w: between roots of g' = w, minus interior of g' = -w
        rt_hi = _quad_roots(qa, qb, qc - sign * wmax)
        rt_lo = _quad_roots(qa, qb, qc + sign * wmax)
        idx = np.nonzero(quad)[0]
        for pos, row in enumerate(idx):
            outer = rt_hi[pos]
            inner = rt_lo[pos]
            segs = []
            if outer is None:
                pass
            elif inner is None:
                segs = [outer]
            else:
                segs = [(outer[0], inner[0]), (inner[1], outer[1])]
            k = 0
            for lo_s, hi_s in segs:
                lo_s = max(lo_s, -ybound)
                hi_s = min(hi_s, ybound)
                if lo_s <= hi_s and k < 2:
                    out[row, k, 0] = lo_s
                    out[row, k, 1] = hi_s
                    k += 1
    return out


def _quad_roots(a, b, c):
    """Sorted real root pairs of each quadratic row, or None."""
    disc = b * b - 4 * a * c
    out = []
    for i in range(len(np.atleast_1d(a))):
        d = disc[i]
        if d < 0:
            out.append(None)
            continue
        s = np.sqrt(d)
        r1 = (-b[i] - s) / (2 * a[i])
        r2 = (-b[i] + s) / (2 * a[i])
        out.append((min(r1, r2), max(r1, r2)))
    return out


def norm_product_spectrum(form: DecomposableForm, height: int,
                          clip: float = 10.0) -> SpectrumReport:
    """Exact full-box spectrum for rational forms whose factors each touch a
    single distinct variable (coordinate-product shape).

    The product over places then splits as a product of independent
    per-variable norms, so the full-box value set at any height follows from
    the one-variable norm sets, with no box enumeration at all.
    """
    field = form.field
    if form.r != 2:
        raise WrongPlaceCount("spectrum needs exactly two places")
    if not (is_rational(form) and _common_factor_lists(form)):
        raise ValidationError("factored spectrum needs a rational form with "
                              "identical factor lists")
    touched = []
    for fac in form.factors[0]:
        nz = [j for j, c in enumerate(fac) if not c.is_zero()]
        if len(nz) != 1:
            raise ValidationError("factored spectrum needs monomial factors")
        touched.append(nz[0])
    if sorted(touched) != list(range(form.n)):
        raise ValidationError("factors must cover each variable once")
    norms, _ = _int_image(field, [(field.one,)], _box(height, field.degree),
                          norm=True)
    norms = np.unique(np.abs(norms)).tolist()
    # per factor: |N(coef)| * |N(w)| over the one-variable box
    scale = Fraction(1)
    for v, s in enumerate(form.scalars):
        q = abs(s.coeffs[0])
        scale *= q if field.places()[v].is_real else q * q
    per_var = []
    for fac in form.factors[0]:
        coef = next(c for c in fac if not c.is_zero())
        cn = abs(fast_norm(field, coef))
        per_var.append(sorted({Fraction(x) * cn for x in norms if x > 0}))
    # combine products under the clip
    limit = Fraction(clip).limit_denominator(10 ** 9) / scale
    frontier = [Fraction(1)]
    for vals in per_var:
        new = set()
        for base in frontier:
            for v in vals:
                t = base * v
                if t <= limit:
                    new.add(t)
                else:
                    break
        frontier = sorted(new)
    exact_vals = sorted(scale * t for t in frontier)
    floats = [float(v) for v in exact_vals]
    gaps = [b - a for a, b in zip(floats, floats[1:])]
    return SpectrumReport(height, clip, True, scale, exact_vals,
                          floats[0] if floats else None,
                          min(gaps) if gaps else (floats[0] if floats else None),
                          len(floats),
                          note="exact: factored full-box spectrum")


# -- density ---------------------------------------------------------------------


@dataclass
class DensityReport:
    height: int
    eps: float
    window: tuple
    cells_total: int
    cells_hit: int
    points_used: int
    points_in_window: int
    mode: str

    @property
    def coverage(self) -> float:
        return self.cells_hit / self.cells_total if self.cells_total else 0.0


def density_report(scan: FormScan, window=None, eps: float = 0.25) -> DensityReport:
    """Fraction of eps-cells of the window hit by scan values.

    Coordinates per place: the signed value at real places, the squared
    modulus at complex places.  A sampled scan undercounts coverage, never
    overcounts, so thresholds passed on samples hold for the full box.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    form = scan.form
    r = form.r
    if window is None:
        window = tuple((-5.0, 5.0) for _ in range(r))
    vals = [scan.numeric_values(v) for v in range(r)]
    mask = scan.nonzero_mask().copy()
    per_axis = []
    for v in range(r):
        lo, hi = window[v]
        mask &= (vals[v] >= lo) & (vals[v] <= hi)
        per_axis.append(int(np.ceil((hi - lo) / eps)))
    total = 1
    for k in per_axis:
        total *= k
    if not mask.any():
        return DensityReport(scan.height, eps, tuple(window), total, 0,
                             scan.npoints, 0, scan.mode)
    idx = None
    for v in range(r):
        lo, hi = window[v]
        cells = np.minimum(((vals[v][mask] - lo) / eps).astype(np.int64),
                           per_axis[v] - 1)
        idx = cells if idx is None else idx * per_axis[v] + cells
    hit = int(np.unique(idx).size)
    return DensityReport(scan.height, eps, tuple(window), total, hit,
                         scan.npoints, int(mask.sum()), scan.mode)


# -- two-place spectrum ------------------------------------------------------------


@dataclass
class SpectrumReport:
    height: int
    clip: float
    rational_form: bool
    constant: Optional[Fraction]      # exact C with products in C*N, if rational
    values: list                      # sorted distinct products in (0, clip]
    min_value: Optional[float]
    min_gap: Optional[float]
    count_nonzero: int
    note: str = ""


def two_place_spectrum(scan: FormScan, clip: float = 10.0) -> SpectrumReport:
    """Distinct norm products prod_v |f_v(z)|_v in (0, clip].

    Exact for rational forms with a common factor list (products are
    C * integers); otherwise certified numerics with a dedupe width.  A
    finite scan can only ever be consistent with discreteness, never prove
    it; the report says which.
    """
    form = scan.form
    if form.r != 2:
        raise WrongPlaceCount("spectrum needs exactly two places")
    rational = is_rational(form)
    if rational and _common_factor_lists(form):
        vals, const = _spectrum_exact(scan, clip)
        exact_vals = sorted(const * v for v in vals)
        floats = [float(v) for v in exact_vals]
        gaps = [b - a for a, b in zip(floats, floats[1:])]
        return SpectrumReport(scan.height, clip, True, const, exact_vals,
                              floats[0] if floats else None,
                              min(gaps) if gaps else (floats[0] if floats else None),
                              len(floats),
                              note="exact: products lie in C*N")
    # general path: certified per point, capped
    if scan.npoints > EXACT_POINT_CAP:
        raise CapExceeded("per-point spectrum needs a smaller scan")
    prods = []
    f = form.field
    places = f.places()
    for idx in range(scan.npoints):
        if scan.degenerate[idx]:
            continue
        z = scan.coordinate(idx)
        p = RInt(1)
        zero = False
        for v in range(form.r):
            val = form.value(v, z)
            if val.is_zero():
                zero = True
                break
            p = p * f.normalized_abs(val, places[v],
                                     max_width=Fraction(1, 2 ** 64))
        if zero:
            continue
        mid = float(p.mid)
        if 0 < mid <= clip:
            prods.append(mid)
    prods.sort()
    distinct = []
    for x in prods:
        if not distinct or x - distinct[-1] > 1e-9:
            distinct.append(x)
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    return SpectrumReport(scan.height, clip, rational, None, distinct,
                          distinct[0] if distinct else None,
                          min(gaps) if gaps else (distinct[0] if distinct else None),
                          len(distinct),
                          note="numeric midpoints; consistent-with evidence only")


def _common_factor_lists(form: DecomposableForm) -> bool:
    first = form.factors[0]
    return all(form.factors[v] == first for v in range(1, form.r))


def _spectrum_exact(scan: FormScan, clip: float):
    """Products for a rational form with identical factor lists.

    prod_v |f_v(z)|_v = C * |N(l_1(z))| ... |N(l_m(z))| with
    C = prod_v |scalar_v|_v; the norms are exact integers over the
    denominator of the integer image, so the products are exact integers
    times C / den.  Returns the sorted distinct integers whose product with
    that constant is at most clip, and the constant.
    """
    form = scan.form
    f = form.field
    places = f.places()
    norms, den = _int_image(f, form.factors[0], scan.points, norm=True)
    norms = np.abs(norms)       # zero exactly at the degenerate points
    vals = np.unique(norms[norms > 0]).tolist()
    if all(s.is_rational() for s in form.scalars):
        const = Fraction(1)
        for v, s in enumerate(form.scalars):
            q = abs(s.coeffs[0])
            const *= q if places[v].is_real else q * q
    else:
        cvals = RInt(1)
        for v in range(form.r):
            cvals = cvals * f.normalized_abs(form.scalars[v], places[v],
                                             max_width=Fraction(1, 2 ** 64))
        const = Fraction(float(cvals.mid))
    const /= den
    keep = bisect.bisect_right(vals, clip, key=lambda x: const * x)
    return [Fraction(x) for x in vals[:keep]], const


# -- CM obstruction -----------------------------------------------------------------


@dataclass
class CmPointResult:
    index: int
    branch: str                   # "norm-product" | "ray"
    norm_product: Optional[Fraction]
    ray_scalar: Optional[tuple]   # F-coordinates of a with delta = a gamma
    sine_gap: Optional[float]     # max certified width of the identity check


@dataclass
class CmCheckReport:
    constant: Fraction
    index_l: int
    points: List[CmPointResult]
    violations: list
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_suborder_index(field: NumberField, l: int) -> bool:
    """Check l^2 = disc(O_F[sqrt(-d)]) / disc(Z[theta]) for the declared CM
    presentation (both orders computed inside Z[theta])."""
    cm = field.cm_structure
    if cm is None:
        raise NotCm("no CM presentation declared")
    fdeg = pu.degree(cm.subfield_poly)
    basis = [cm.subfield_gen ** i for i in range(fdeg)]
    basis += [cm.relative_gen * b for b in basis]
    sub = order_discriminant(field, basis)
    full = order_discriminant(field)
    ratio = sub / full
    return ratio == l * l


def cm_obstruction_check(form: DecomposableForm, scan: FormScan,
                         index_l: int,
                         sine_tolerance: Fraction = Fraction(1, 10 ** 10)) -> CmCheckReport:
    """Integrality/ray dichotomy for binary forms with subfield coefficients.

    For each scanned point z = gamma + sqrt(-d) delta: when gamma and delta
    are independent over F the product of the normalized values is bounded
    below by |N_F(d)| times the exact rational N_F(det(gamma, delta))^2,
    which lies in (1/l^(4r)) N; otherwise delta = a gamma for an exact
    a in F and every place value sits on the ray through (1 + a sqrt(-d))^2.
    The per-place sine identity is certified at every point.
    """
    field = form.field
    if not is_cm(field):
        raise NotCm("field is not CM (or lacks the declared presentation)")
    cm = field.cm_structure
    if form.n != 2 or form.m != 2:
        raise ValidationError("the CM check covers binary forms (n = m = 2)")
    if any(not s.is_rational() or s.coeffs[0] != 1 for s in form.scalars):
        raise ValidationError("normalize the form: scalars must be one")
    if not verify_suborder_index(field, index_l):
        raise ValidationError(f"declared index {index_l} fails the "
                              "discriminant-ratio verification")
    r = field.n_places
    places = field.places()
    # coefficients in F, factor matrices in SL_2(F)
    for v in range(form.r):
        for i in range(form.m):
            for c in form.factors[v][i]:
                if subfield_coordinates(field, cm, c) is None:
                    raise CoefficientsNotInF(f"place {v} factor {i}")
        h = MatrixK(field, [list(form.factors[v][i]) for i in range(2)])
        if not (h.det() == field.one):
            raise ValidationError(f"place {v}: factor matrix must have det 1")
    nd = _norm_f(field, cm, cm.d)
    constant = abs(nd) / Fraction(index_l) ** (4 * r)

    common_factors = _common_factor_lists(form)
    results = []
    violations = []
    for idx in range(scan.npoints):
        z = scan.coordinate(idx)
        g1, d1 = split_cm(field, cm, z[0])
        g2, d2 = split_cm(field, cm, z[1])
        det_gd = g1 * d2 - g2 * d1
        if det_gd.is_zero():
            res = _ray_branch(field, cm, form, idx, (g1, g2), (d1, d2))
            if res is None:
                violations.append((idx, "ray certificate failed"))
                continue
            results.append(res)
            continue
        # independent branch
        nfd = _norm_f(field, cm, det_gd)
        prod = nfd * nfd
        scaled = prod * Fraction(index_l) ** (4 * r)
        if scaled.denominator != 1 or scaled <= 0:
            violations.append((idx, f"norm product {prod} not in (1/l^{4*r})N"))
            continue
        # inequality prod_v |f_v(z)|_v >= |N_F(d)| * prod: exact via the field
        # norm when the factor lists agree across places, else certified
        rhs = abs(nd) * prod
        if common_factors:
            val = form.value(0, z)
            lhs_exact = abs(fast_norm(field, val))
            if not val.is_zero() and lhs_exact < rhs:
                violations.append((idx, "exact inequality violation"))
                continue
        else:
            lhs = RInt(1)
            ok = True
            for v in range(r):
                val = form.value(v, z)
                if val.is_zero():
                    ok = False
                    break
                lhs = lhs * field.normalized_abs(val, places[v],
                                                 max_width=Fraction(1, 2 ** 64))
            if ok and lhs.hi < rhs:
                violations.append((idx, "certified inequality violation"))
                continue
        sine_gap = _sine_identity_check(field, cm, form, z, det_gd,
                                        sine_tolerance)
        if sine_gap is None:
            violations.append((idx, "sine identity failed"))
            continue
        results.append(CmPointResult(idx, "norm-product", prod, None, sine_gap))
    return CmCheckReport(constant, index_l, results, violations,
                         checked=scan.npoints)


def _norm_f(field, cm, x) -> Fraction:
    """Norm from F to Q of an element of F given inside K (exact)."""
    coords = subfield_coordinates(field, cm, x)
    if coords is None:
        raise ValidationError("element is not in F")
    xp = pu.poly(coords)
    if pu.degree(xp) == 0:
        return xp[0] ** pu.degree(cm.subfield_poly)
    return pu.resultant(cm.subfield_poly, xp)


def _ray_branch(field, cm, form, idx, gammas, deltas):
    """delta = a gamma exactly: f_v(z) = (1 + a sqrt(-d))^2 f_v(gamma)."""
    g1, g2 = gammas
    d1, d2 = deltas
    if g1.is_zero() and g2.is_zero():
        # z purely imaginary multiple: values are (-d) f_v(delta), still a ray
        return CmPointResult(idx, "ray", None, ("inf",), None)
    # solve a from whichever gamma coordinate is nonzero
    if not g1.is_zero():
        a = d1 / g1
    else:
        a = d2 / g2
    if not (d1 == a * g1 and d2 == a * g2):
        return None
    factor = (field.one + a * cm.relative_gen)
    fac2 = factor * factor
    for v in range(form.r):
        lhs = form.value(v, (g1 + cm.relative_gen * d1,
                             g2 + cm.relative_gen * d2))
        rhs = fac2 * form.value(v, (g1, g2))
        if lhs != rhs:
            return None
    coords = subfield_coordinates(field, cm, a)
    return CmPointResult(idx, "ray", None, tuple(coords), None)


def _sine_identity_check(field, cm, form, z, det_gd, tolerance):
    """The per-place identity |det(h gamma, h delta)|_v sigma_v(d)
    = |f_v(z)|_v |sin(phi_1 - phi_2)|^2, verified exactly.

    Complex conjugation of a CM field is a field automorphism commuting
    with every embedding, so Im(sigma(w1) conj(sigma(w2))) equals
    sigma(imaginary F-part of w1 * conj(w2)) times sqrt(sigma(d)); clearing
    the moduli turns the identity into det(gamma, delta)^2 = (that
    imaginary part)^2, an exact equation in F.  Returns 0.0 (the enclosure
    width of an exact identity) or None on failure."""
    for v in range(form.r):
        w1 = form.factor_value(v, 0, z)
        w2 = form.factor_value(v, 1, z)
        y = w1 * cm_conjugate(field, cm, w2)
        _, delta_y = split_cm(field, cm, y)
        if not (delta_y * delta_y == det_gd * det_gd):
            return None
    return 0.0


def sine_identity_enclosure(field, form, z, width=Fraction(1, 2 ** 64)):
    """Certified numeric enclosure of the same identity, for spot checks.

    Returns the worst residual-interval width across places, or None if an
    enclosure excludes zero (which would falsify the identity)."""
    cm = field.cm_structure
    g1, d1 = split_cm(field, cm, z[0])
    g2, d2 = split_cm(field, cm, z[1])
    det_gd = g1 * d2 - g2 * d1
    places = field.places()
    worst = 0.0
    for v in range(form.r):
        pl = places[v]
        demb = field.embed(det_gd, pl, max_width=width)
        dval = field.embed(cm.d, pl, max_width=width)
        w1 = field.embed(form.factor_value(v, 0, z), pl, max_width=width)
        w2 = field.embed(form.factor_value(v, 1, z), pl, max_width=width)
        cross = w1 * w2.conj()
        det_sq = (demb.re if hasattr(demb, "re") else demb).square()
        d_re = dval.re if hasattr(dval, "re") else dval
        diff = det_sq * d_re - cross.im.square()
        if not diff.contains(0):
            return None
        worst = max(worst, float(diff.width))
    return worst
