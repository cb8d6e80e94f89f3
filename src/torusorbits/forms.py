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
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from . import polyutil as pu
from .decomp import MatrixK, rows_independent
from .errors import (ArityMismatch, CapExceeded, CoefficientsNotInF,
                     DependentFactors, HypothesisFails, InvariantViolation,
                     NotCm, SearchExhausted, ValidationError,
                     WrongPlaceCount)
from .intervals import RInt
from .numfield import (FieldElement, NumberField, _cm_split_solver,
                       field_norm, is_cm, norm_form, order_discriminant,
                       split_cm, subfield_coordinates)
from .strata import OrbitInput

EXACT_POINT_CAP = 250_000
REDUCE_DRAWS = 10_000       # substitution matrices reduce_variables tries


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
        return self.field.dot(self.factors[v][i], z)

    def value(self, v: int, z) -> FieldElement:
        acc = self.scalars[v]
        for i in range(self.m):
            acc = acc * self.factor_value(v, i, z)
        return acc

    def expanded(self, v: int) -> dict:
        """Exact monomial expansion of the place-v product polynomial:
        monomial exponents -> nonzero coefficient in K."""
        n = self.n
        linear = (pu.MultiPoly(n, {tuple(int(i == j) for i in range(n)): c
                                   for j, c in enumerate(fac) if c})
                  for fac in self.factors[v])
        seed = pu.MultiPoly(n, {(0,) * n: self.scalars[v]})
        return functools.reduce(operator.mul, linear, seed).terms


def make_form(field: NumberField, per_place_factors, scalars=None) -> DecomposableForm:
    """Validate and build; rejects dependent factor lists and shape mismatches."""
    r = field.n_places
    if len(per_place_factors) != r:
        raise ArityMismatch(f"need factor lists for all {r} places")
    m = len(per_place_factors[0])
    if m == 0:
        raise ArityMismatch("need at least one factor")
    n = len(per_place_factors[0][0])
    if m > n:
        raise ArityMismatch("more factors than variables cannot be independent")
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
        if not rows_independent(field, conv):
            raise DependentFactors(f"place {v}: factors are dependent")
        factors.append(tuple(conv))
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
    monos = sorted(base)
    for v in range(1, form.r):
        cur = form.expanded(v)
        if set(cur) != set(base) or not _proportional(
                [base[m] for m in monos], [cur[m] for m in monos]):
            return False
    return True


def form_to_group(form: DecomposableForm):
    """Scalars and SL_n(K) components with f_v(x) = alpha_v * f0(g_v x).

    g_v has the factor coefficients as rows, the first row divided by the
    determinant, which is nonzero since make_form refused dependent factors;
    the identity is verified by exact expansion.  The scalar normalization
    is one valid choice among the torus orbit of choices.
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
            raise InvariantViolation("group bridge identity failed to verify")
    return alphas, OrbitInput(tuple(comps))


def reduce_variables(form: DecomposableForm,
                     seed: int = 0) -> Tuple[DecomposableForm, list]:
    """Cut the variable count down to the factor count.

    Requires some factor at one place to be non-proportional to every
    factor at another place (verified exactly); searches small integer
    matrices, at most REDUCE_DRAWS of them, until all per-place factor
    images stay independent and the designated non-proportionality
    survives.  Returns the reduced form and the substitution matrix (rows =
    images of the coordinate functionals).
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
    for _ in range(REDUCE_DRAWS):
        phi = [[f.from_rational(rng.randint(-3, 3)) for _ in range(form.n)]
               for _ in range(form.m)]
        new_factors = []
        ok = True
        for v in range(form.r):
            lst = [tuple(f.dot(row, fac) for row in phi)
                   for fac in form.factors[v]]
            if not rows_independent(f, lst):
                ok = False
                break
            new_factors.append(lst)
        if not ok:
            continue
        red_w = new_factors[pi][fi]
        if any(_proportional(red_w, fac) for fac in new_factors[pj]):
            continue
        reduced = make_form(f, new_factors, scalars=list(form.scalars))
        return reduced, phi
    raise SearchExhausted(f"no valid substitution in {REDUCE_DRAWS} draws")


def _proportional(a, b) -> bool:
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
                if not any(_proportional(fac, other)
                           for other in form.factors[pj]):
                    return (pi, fi, pj)
    return None


# -- scans -----------------------------------------------------------------------


@dataclass
class FormScan:
    """Lattice points of Z[theta]^n with coefficient height <= H.

    points is an integer array of shape (N, n*deg): the power-basis
    coefficients of the n coordinates, concatenated.  mode records whether
    the box was enumerated completely, sampled deterministically (the
    sampled point set is always a subset of the box, so coverage statistics
    are conservative) or enumerated exactly inside a window.
    """
    form: DecomposableForm
    height: int
    points: np.ndarray
    mode: str                    # "full" | "sampled" | "window-complete"

    @functools.cached_property
    def degenerate(self) -> np.ndarray:
        """Where some factor vanishes at some place (exact), on first read."""
        return _degenerate_mask(self.form, self.points)

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


def scan_values(form: DecomposableForm, height: int,
                sample: Optional[int] = None, seed: int = 0) -> FormScan:
    """Enumerate (or deterministically sample) the height box.

    Full enumeration refuses boxes larger than EXACT_POINT_CAP
    (CapExceeded); pass sample=N to draw N distinct points instead.  Before
    the first draw, a sample refuses N < 1 (ValidationError), N x dim above
    SAMPLE_ENTRY_CAP and a height past int64 (CapExceeded; a draw holds
    N x dim int64 entries) and N above the box's nonzero points
    (SearchExhausted).
    """
    if height < 1:
        raise ValidationError("height must be positive")
    dim = form.n * form.field.degree
    if sample is None:
        _box_size(height, dim, EXACT_POINT_CAP, "; pass sample=")
        pts = _box(height, dim)
        return FormScan(form, height, pts[np.any(pts != 0, axis=1)], "full")
    if sample < 1:
        raise ValidationError("a sample needs at least one point")
    if sample * dim > SAMPLE_ENTRY_CAP:
        raise CapExceeded(
            f"a sample of {sample} points in {dim} coordinates exceeds "
            f"the cap of {SAMPLE_ENTRY_CAP} entries")
    if height > np.iinfo(np.int64).max:
        raise CapExceeded(f"sample coordinates up to {height} pass int64")
    free = (2 * height + 1) ** dim - 1
    if sample > free:
        raise SearchExhausted(
            f"a sample of {sample} points from a box with {free} "
            "nonzero points")
    rng = np.random.default_rng(seed)
    zero = pu.row_keys(np.zeros((1, dim), dtype=np.int64), height)
    taken = np.zeros(0, dtype=zero.dtype)
    chunks = []
    count = guard = 0
    while count < sample:
        draw = rng.integers(-height, height + 1, size=(sample, dim),
                            dtype=np.int64)
        keys = pu.row_keys(draw, height)
        # the first occurrence of each new nonzero row, in draw order
        fresh = np.sort(np.unique(keys, return_index=True)[1])
        fresh = fresh[~np.isin(keys[fresh], taken, assume_unique=True)
                      & (keys[fresh] != zero)][:sample - count]
        chunks.append(draw[fresh])
        taken = np.concatenate([taken, keys[fresh]])
        count += len(fresh)
        guard += 1
        if guard > 200:
            raise SearchExhausted("sampling stalled; box too small?")
    return FormScan(form, height, np.concatenate(chunks), "sampled")


def _box_size(height: int, dim: int, cap: int, hint: str = "") -> int:
    """(2*height + 1)^dim, the number of points of the height box in dim
    coordinates; above cap, CapExceeded before anything is built."""
    total = (2 * height + 1) ** dim
    if total > cap:
        raise CapExceeded(f"box of {total} points exceeds the cap {cap}{hint}")
    return total


def _box(height: int, dim: int, start: int = 0,
         stop: Optional[int] = None) -> np.ndarray:
    """Rows start..stop (all by default) of {-height..height}^dim in
    lexicographic order, as an (N, dim) int64 array: row k is the point
    whose pu.row_keys key is k."""
    if stop is None:
        stop = (2 * height + 1) ** dim
    return pu.key_rows(np.arange(start, stop, dtype=np.int64), height, dim)


def _int_image(field: NumberField, factors, pts: np.ndarray, norm: bool = False):
    """Exact integer image of an integer point batch under polynomial maps.

    pts is an (N, n*deg) array of power-basis coefficients of n coordinates.
    A factor is a list of MultiPolys with rational coefficients in those
    n*deg coordinates, or a K-linear form (c_1, ..., c_n): the degree-1
    case, whose deg polynomials are the rows of [M(c_1) ... M(c_n)] (M from
    mult_matrix), the power-basis coordinates of c_1 z_1 + ... + c_n z_n.
    A factor's image is D times its polynomial values, D the least common
    denominator of its coefficients.  The batch is evaluated
    WINDOW_CHUNK_POINTS points at a time.  Returns an iterator over the
    chunks, each as its slice of the batch and the list of the
    (len(factor), n) images of its n points, and the list of the D; with
    norm=True (deg polynomials per factor), the length-N product of the
    field norms of those images and the product of the D^deg.

    The dtype follows one a-priori bound on every intermediate: a
    polynomial with integer coefficients c on inputs bounded by B stays
    below sum |c| * B^(degree of the term).  For an image B is
    max(1, max|pts|), read from the points themselves (so a scan merged
    from a larger height is covered); a norm applies the rule to the norm
    form over the image's bound, and a product of norms multiplies those
    bounds.  Below 2^63 the arrays are int64, otherwise Python-int object
    arrays; the numpy expressions are the same on both.
    """
    deg = field.degree
    maps = []
    for fac in factors:
        polys = fac if isinstance(fac[0], pu.MultiPoly) else \
            _linear_polys(field, fac)
        den = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
        maps.append(([p * den for p in polys], den))
    top = max(1, -int(pts.min()), int(pts.max())) if pts.size else 1
    bounds = [max(_poly_bound(p, top) for p in polys) for polys, _ in maps]
    if norm:
        nform = norm_form(field)
        bounds = [math.prod(_poly_bound(nform, b) for b in bounds)]
    dtype = np.int64 if max(bounds) < 2 ** 63 else object
    # an empty batch is one empty chunk
    parts = [slice(start, start + WINDOW_CHUNK_POINTS)
             for start in range(0, max(len(pts), 1), WINDOW_CHUNK_POINTS)]

    def images(part):
        cols = list(pts[part].astype(dtype, copy=False).T)
        return [np.array([p.eval_int_numpy(cols) for p in polys])
                for polys, _ in maps]

    dens = [den for _, den in maps]
    if not norm:
        return ((part, images(part)) for part in parts), dens
    prods = [math.prod(nform.eval_int_numpy(list(img)) for img in images(part))
             for part in parts]
    return np.concatenate(prods), math.prod(den ** deg for den in dens)


def _linear_polys(field: NumberField, fac):
    """A K-linear form (c_1, ..., c_n) as the deg linear MultiPolys whose
    coefficients are the rows of [M(c_1) ... M(c_n)]."""
    mats = [field.mult_matrix(c) for c in fac]
    nv = len(fac) * field.degree
    units = [tuple(int(j == k) for j in range(nv)) for k in range(nv)]
    return [pu.MultiPoly(nv, {u: x for u, x in
                              zip(units, (x for m in mats for x in m[t])) if x})
            for t in range(field.degree)]


def _poly_bound(poly, bound: int) -> int:
    """sum |c| * bound^(degree of the term) over the terms of poly."""
    return sum(abs(c) * bound ** sum(e) for e, c in poly.terms.items())


def _degenerate_mask(form: DecomposableForm, pts: np.ndarray) -> np.ndarray:
    """Exact vanishing test of any factor at any place (integer arithmetic)."""
    bad = np.zeros(pts.shape[0], dtype=bool)
    for v in range(form.r):
        for part, images in _int_image(form.field, form.factors[v], pts)[0]:
            for coords in images:
                bad[part] |= np.all(coords == 0, axis=0)
            del images, coords      # free this chunk before the next
    return bad


def _numeric_form_values(form: DecomposableForm, pts: np.ndarray, v: int) -> np.ndarray:
    f = form.field
    place = f.places()[v]
    basis = f.float_basis(place)
    sval = f.float_embed(form.scalars[v], place)
    chunks, dens = _int_image(f, form.factors[v], pts)
    out = np.empty(len(pts))
    for part, images in chunks:
        acc = None
        for coords, den in zip(images, dens):
            coords = np.ascontiguousarray(coords.T, dtype=np.float64)
            if place.is_real:
                cur = coords @ basis / den
            else:
                cur = coords @ basis.real / den + 1j * (coords @ basis.imag / den)
            acc = cur if acc is None else acc * cur
        out[part] = acc * sval if place.is_real else np.abs(acc * sval) ** 2
        del images, coords, cur, acc    # free this chunk before the next
    return out


def window_scan(form: DecomposableForm, height: int, window) -> FormScan:
    """Every box point whose value vector lands in the window, enumerated
    exactly without touching the rest of the box.

    Binary forms with two factors at any signature, with at most
    BOX_POINT_CAP first coordinates (CapExceeded before anything is built).
    A point is kept when |f_v| <= W_v at every place, in floats, W_v the
    window's largest |value| (its root at a complex place, whose value is
    |f_v|^2) padded by WINDOW_PAD.  Given the first coordinate, the second's
    embedding lies in one of two discs per place (`_disc_boxes`); one disc
    per place is a parallelepiped of the real embedding: its leading deg - 1
    coordinates run over its bounding box, the last over its exact range.
    First coordinates stream through in chunks of WINDOW_FIRST_POINTS,
    leading points in chunks of WINDOW_CHUNK_POINTS; candidates are kept as
    pu.row_keys keys, and one sort orders and deduplicates them.  Coverage
    statistics equal full-box coverage.  As |f_v(-z)| = |f_v(z)| and the
    scan is odd, it walks half the box and adds the negations' keys."""
    _check_window(window)
    keys = np.concatenate(_window_keys(form, height, window))
    dim = 2 * form.field.degree
    keys = pu.distinct(np.concatenate(
        [keys, (2 * height + 1) ** dim - 1 - keys]))
    keys = keys[keys != pu.row_keys(np.zeros((1, dim), dtype=np.int64), height)]
    return FormScan(form, height, pu.key_rows(keys, height, dim),
                    "window-complete")


def _check_window(window, eps: float = 1.0) -> None:
    """ValidationError unless 0 < eps, lo < hi and all are finite (no NaN)."""
    if not 0 < eps < math.inf:
        raise ValidationError("eps must be finite and positive")
    if not all(-math.inf < lo < hi < math.inf for lo, hi in window):
        raise ValidationError("window bounds must be finite with lo < hi")


def _window_keys(form: DecomposableForm, height: int, window) -> list:
    """The row keys of window_scan's points, chunk by chunk and with
    repeats, so that the chunks' arrays are freed before the keys are
    decoded, for the first coordinates up to 0 only.  Each step is odd under
    z -> -z: negation commutes with rounding, rows sum in one fixed order,
    the discs' centres negate, the pads turn ceil into floor, and the value
    test reads |f_v| and |lo|, |hi|.  The window pad only ever adds points;
    density_report's mask applies the exact window."""
    field = form.field
    if form.n != 2:
        raise ValidationError("window enumeration handles binary forms")
    places = field.places()
    if len(window) != len(places):
        raise ValidationError("one window interval per place")
    if form.m != 2:
        raise ValidationError("window enumeration handles two factors")
    deg = field.degree
    half = (_box_size(height, deg, BOX_POINT_CAP) + 1) // 2
    scalar_abs = np.abs([field.float_embed(s, places[v])
                         for v, s in enumerate(form.scalars)])
    if any(s == 0 for s in scalar_abs):
        raise ValidationError("zero scalar")
    # the float bases psi, and the real embedding phi: their real parts, then
    # the imaginary parts at the complex places; row k is place_of[k]'s
    psi = np.array([field.float_basis(pl) for pl in places])
    real = np.array([pl.is_real for pl in places])
    phi = np.concatenate([psi.real, psi.imag[~real]])
    place_of = np.concatenate([np.arange(len(places)), np.nonzero(~real)[0]])
    Minv = np.linalg.inv(phi)
    # a[v, i], b[v, i]: embeddings of the i-th factor's two coefficients
    a, b = np.array([[[field.float_embed(c, pl) for c in fac]
                      for fac in form.factors[v]]
                     for v, pl in enumerate(places)]).transpose(2, 0, 1)
    ybound = float(np.abs(phi).sum(axis=1).max()) * height * (1 + 1e-9)
    top = np.abs(window).max(axis=1)      # W_v, its root at a complex place
    wmax = np.where(real, top, np.sqrt(top)) / scalar_abs * (1 + WINDOW_PAD) \
        + WINDOW_PAD
    keys = [np.zeros(0, dtype=np.int64)]
    for start in range(0, half, WINDOW_FIRST_POINTS):
        c = _box(height, deg, start, min(start + WINDOW_FIRST_POINTS, half))
        p = (c @ psi.T)[:, :, None] * a         # (N1, r, 2): the z1 terms
        boxes = np.stack([_disc_boxes(p[:, v], b[v], wmax[v], ybound)
                          for v in range(len(places))], axis=1)
        boxes = np.concatenate([boxes[:, :, 0], boxes[:, ~real, 1]], axis=1)
        for combo in itertools.product(range(2), repeat=len(places)):
            sel = boxes[:, np.arange(deg), np.array(combo)[place_of]]
            idxs = np.nonzero(~np.isnan(sel[:, :, 0]).any(axis=1))[0]
            if not len(idxs):
                continue
            lows, highs = sel[idxs, :, 0], sel[idxs, :, 1]
            # the y-box's bounding box in d-space, and its integer ranges
            mid = (lows + highs) / 2 @ Minv.T
            rad = (highs - lows) / 2 @ np.abs(Minv).T
            lo, hi = mid - rad, mid + rad
            dlo = np.maximum(np.ceil(lo - 1e-9).astype(np.int64), -height)
            dhi = np.minimum(np.floor(hi + 1e-9).astype(np.int64), height)
            rows = np.nonzero(np.all(dhi >= dlo, axis=1))[0]
            sizes = np.prod(dhi[rows, :-1] - dlo[rows, :-1] + 1, axis=1)
            for part in pu.chunks(sizes, WINDOW_CHUNK_POINTS):
                t = rows[part]
                lead, owner = _ragged_box(dlo[t, :-1], dhi[t, :-1])
                first, final = _last_range(lead, owner, lows[t], highs[t],
                                           phi, ybound)
                first = np.maximum(first, dlo[t, -1][owner]).astype(np.int64)
                final = np.minimum(final, dhi[t, -1][owner]).astype(np.int64)
                ok = np.nonzero(first <= final)[0]
                (last,), pick = _ragged_box(first[ok, None], final[ok, None])
                pick = ok[pick]
                d = np.column_stack([col[pick] for col in lead] + [last])
                src = idxs[t[owner[pick]]]
                y, (p1, p2) = d @ psi.T, p[src].transpose(2, 0, 1)
                val = (p1 + b[:, 0] * y) * (p2 + b[:, 1] * y)   # f_v / s_v
                keep = np.all(np.abs(val) <= wmax, axis=1)
                keys.append(pu.row_keys(np.column_stack(
                    [c[src[keep]], d[keep]]), height))
    return keys


# Points per chunk: of leading points in the window scan and of a batch in
# every integer image (_int_image); of first coordinates in the window scan
# a quarter of that, since each one's disc and bounding boxes live at once.
WINDOW_CHUNK_POINTS = 1 << 14
WINDOW_FIRST_POINTS = 1 << 12
# Box points that window_scan and norm_product_spectrum may enumerate.
BOX_POINT_CAP = 1 << 20
# Entries (points x coordinates) of one scan_values sample draw: admits a
# 10^6-point sample in 8 coordinates.
SAMPLE_ENTRY_CAP = 1 << 23
WINDOW_PAD = 1e-9       # relative and absolute widening of the window bounds


def _ragged_box(lo: np.ndarray, hi: np.ndarray):
    """The integer points of the boxes [lo_i, hi_i] (rows of (R, k) arrays)
    one box after another, each in meshgrid "ij" order (last coordinate
    fastest): the k coordinate arrays, and the index of each point's box."""
    owner = np.arange(len(lo))
    cols = []
    for k in range(lo.shape[1]):
        ext = hi[owner, k] - lo[owner, k] + 1
        base = np.repeat(lo[owner, k] - (np.cumsum(ext) - ext), ext)
        cols = [np.repeat(c, ext) for c in cols] + [base + np.arange(len(base))]
        owner = np.repeat(owner, ext)
    return cols, owner


def _last_range(lead, owner, lows, highs, phi, ybound):
    """For each point of leading coordinates lead in box row owner: the
    range of the last coordinate that may pass lows_k - 1e-9 <= phi_k . d <=
    highs_k + 1e-9 at every row k of phi, as integral floats; a row whose
    last entry is about 0 (an Re or Im row may be) is left out."""
    # Each quantity here is at most 2*ybound + 1, so the filter's dot
    # product and this solve each move row k's bound by at most about
    # deg * eps * (2*ybound + 1) / |phi_k,last|: sixteen times that as slack.
    first = np.full(len(owner), -np.inf)
    final = np.full(len(owner), np.inf)
    for k, p in enumerate(phi[:, -1]):
        if abs(p) <= 1e-9 * np.abs(phi[k]).max():
            continue
        slack = 16 * phi.shape[1] * 2.0 ** -52 * (2 * ybound + 1) / abs(p)
        ends = ((lows[:, k] - 1e-9) / p, (highs[:, k] + 1e-9) / p)
        lo_k, hi_k = ends if p > 0 else ends[::-1]
        rest = sum(phi[k, j] / p * c for j, c in enumerate(lead))
        first = np.maximum(first, (lo_k - slack)[owner] - rest)
        final = np.minimum(final, (hi_k + slack)[owner] - rest)
    return np.ceil(first), np.floor(final)


def _disc_boxes(p, q, wmax, ybound):
    """Per row of p (N, 2), with q = (q1, q2), real or complex: the [lo, hi]
    boxes (N, 2 rows Re and Im, 2 discs, 2), clipped to |y| <= ybound and
    NaN when absent, of two discs holding every y with |(p1 + q1 y)(p2 +
    q2 y)| <= wmax, the Cassini oval |y - r1| |y - r2| <= c, r_i = -p_i / q_i,
    c = wmax / |q1 q2|.  With D = |r1 - r2| its exact bounding discs are one
    about each root, of radius 2c / (D + sqrt(D^2 - 4c)), if D^2 >= 4c, else
    one about (r1 + r2) / 2, of radius sqrt(c + D^2 / 4); a factor constant
    in y (q_i = 0) leaves one about r_j, of radius wmax / |p_i q_j| (the
    whole line if p_i = 0).  Radii are padded by a relative 1e-12."""
    with np.errstate(all="ignore"):
        roots = -p / q
        if not q.all():
            i, split = int(q[0] != 0), False    # i: the factor constant in y
            mid, rad = roots[:, 1 - i], wmax / np.abs(p[:, i] * q[1 - i])
        else:
            c = wmax / abs(q[0] * q[1])
            dist = np.abs(roots[:, 0] - roots[:, 1])
            gap = dist * dist - 4 * c
            split = gap >= 0
            mid = np.where(split, roots[:, 0], roots.mean(axis=1))
            rad = np.where(split, 2 * c / (dist + np.sqrt(gap)),
                           np.sqrt(c + dist * dist / 4))
    centers = np.stack([mid, np.where(split, roots[:, 1], np.nan)], axis=1)
    radii = np.stack([rad, np.where(split, rad, np.nan)], axis=1) * (1 + 1e-12)
    box = np.stack([np.stack([np.maximum(x - radii, -ybound),
                              np.minimum(x + radii, ybound)], axis=2)
                    for x in (centers.real, centers.imag)], axis=1)
    box[~(box[..., 0] <= box[..., 1])] = np.nan
    return box


def norm_product_spectrum(form: DecomposableForm, height: int,
                          clip: float = 10.0) -> SpectrumReport:
    """Exact full-box spectrum for forms with a common factor list whose
    factors each touch a single distinct variable (coordinate-product
    shape) and whose constant C is exact (_spectrum_constant); other forms
    raise ValidationError.

    The product over places then splits as a product of independent
    per-variable norms, so the full-box value set at any height follows from
    the one-variable norm sets, with no box enumeration at all.
    """
    field = form.field
    if form.r != 2:
        raise WrongPlaceCount("spectrum needs exactly two places")
    scale = _spectrum_constant(form) if _common_factor_lists(form) else None
    if scale is None:
        raise ValidationError("factored spectrum needs a rational form with "
                              "identical factor lists and an exact constant")
    touched = []
    for fac in form.factors[0]:
        nz = [j for j, c in enumerate(fac) if not c.is_zero()]
        if len(nz) != 1:
            raise ValidationError("factored spectrum needs monomial factors")
        touched.append(nz[0])
    if sorted(touched) != list(range(form.n)):
        raise ValidationError("factors must cover each variable once")
    # N(-w) = (-1)^deg N(w): the box up to 0 has every |N(w)|
    half = (_box_size(height, field.degree, BOX_POINT_CAP) + 1) // 2
    norms, _ = _int_image(field, [(field.one,)],
                          _box(height, field.degree, 0, half), norm=True)
    norms = pu.distinct(np.abs(norms)).tolist()
    # per factor: |N(coef)| * |N(w)| over the one-variable box
    per_var = []
    for fac in form.factors[0]:
        coef = next(c for c in fac if not c.is_zero())
        cn = abs(field_norm(coef))
        per_var.append(sorted({Fraction(x) * cn for x in norms if x > 0}))
    # combine products under the clip
    limit = Fraction(clip) / scale
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
    return _spectrum_report(height, clip, True, scale,
                            sorted(scale * t for t in frontier),
                            "exact: factored full-box spectrum")


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
    form = scan.form
    r = form.r
    if window is None:
        window = tuple((-5.0, 5.0) for _ in range(r))
    _check_window(window, eps)
    vals = [scan.numeric_values(v) for v in range(r)]
    mask = ~scan.degenerate
    per_axis = []
    for v in range(r):
        lo, hi = window[v]
        mask &= (vals[v] >= lo) & (vals[v] <= hi)
        per_axis.append(int(np.ceil((hi - lo) / eps)))
    total = math.prod(per_axis)
    if not mask.any():
        return DensityReport(scan.height, eps, tuple(window), total, 0,
                             scan.npoints, 0, scan.mode)
    idx = None
    for v in range(r):
        lo, hi = window[v]
        # each place's values are freed once its cells are read
        cells = np.minimum(((vals.pop(0)[mask] - lo) / eps).astype(np.int64),
                           per_axis[v] - 1)
        idx = cells if idx is None else idx * per_axis[v] + cells
    hit = int(pu.distinct(idx).size)
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

    Exact for forms with a common factor list and an exact constant C
    (products are C * integers; see _spectrum_constant);
    otherwise certified numerics with a dedupe width.  A finite scan can
    only ever be consistent with discreteness, never prove it; the report
    says which.
    """
    form = scan.form
    if form.r != 2:
        raise WrongPlaceCount("spectrum needs exactly two places")
    const = _spectrum_constant(form) if _common_factor_lists(form) else None
    if const is not None:
        vals, const = _spectrum_exact(scan, clip, const)
        return _spectrum_report(scan.height, clip, True, const,
                                sorted(const * v for v in vals),
                                "exact: products lie in C*N")
    # general path: certified per point, capped
    if scan.npoints > EXACT_POINT_CAP:
        raise CapExceeded("per-point spectrum needs a smaller scan")
    prods = []
    for idx in range(scan.npoints):
        if scan.degenerate[idx]:
            continue
        p = _certified_product(form, scan.coordinate(idx))
        if 0 < float(p.mid) <= clip:
            prods.append(float(p.mid))
    prods.sort()
    distinct = []
    for x in prods:
        if not distinct or x - distinct[-1] > 1e-9:
            distinct.append(x)
    return _spectrum_report(scan.height, clip, is_rational(form), None,
                            distinct,
                            "numeric midpoints; consistent-with evidence only")


def _spectrum_report(height, clip, rational, constant, values, note):
    """A SpectrumReport on sorted values: the least one and the least gap
    between neighbours (the least value when there is one), as floats."""
    floats = [float(v) for v in values]
    gaps = [b - a for a, b in zip(floats, floats[1:])]
    least = floats[0] if floats else None
    return SpectrumReport(height, clip, rational, constant, values, least,
                          min(gaps) if gaps else least, len(floats), note=note)


def _certified_product(form: DecomposableForm, z) -> RInt:
    """Certified enclosure of prod_v |f_v(z)|_v at a point where no value is
    0: two_place_spectrum skips the degenerate points, and at the
    independent points of cm_obstruction_check det(h gamma, h delta) =
    det(gamma, delta) != 0 leaves no factor value 0."""
    field = form.field
    vals = [form.value(v, z) for v in range(form.r)]
    width = Fraction(1, 2 ** 64)
    return math.prod((field.normalized_abs(val, pl, max_width=width)
                      for val, pl in zip(vals, field.places())), start=RInt(1))


def _common_factor_lists(form: DecomposableForm) -> bool:
    """Whether every place carries the first place's factor list.  Such a
    form is rational: its place polynomials differ only by their nonzero
    scalars."""
    first = form.factors[0]
    return all(form.factors[v] == first for v in range(1, form.r))


def _spectrum_constant(form: DecomposableForm) -> Optional[Fraction]:
    """C = prod_v |scalar_v|_v when it is exact, else None.  It is exact
    when every scalar is rational, and when both places carry one scalar
    s: the two places are all the places, so C = |N(s)|."""
    places = form.field.places()
    if all(s.is_rational() for s in form.scalars):
        const = Fraction(1)
        for v, s in enumerate(form.scalars):
            q = abs(s.coeffs[0])
            const *= q if places[v].is_real else q * q
        return const
    if len(set(form.scalars)) == 1:
        return abs(field_norm(form.scalars[0]))
    return None


def _spectrum_exact(scan: FormScan, clip: float, const: Fraction):
    """Products for a rational form with identical factor lists.

    prod_v |f_v(z)|_v = C * |N(l_1(z))| ... |N(l_m(z))| with
    C = prod_v |scalar_v|_v; the norms are exact integers over the
    denominator of the integer image, so the products are exact integers
    times C / den.  Returns the sorted distinct integers whose product with
    that constant is at most clip, and the constant.
    """
    f = scan.form.field
    norms, den = _int_image(f, scan.form.factors[0], scan.points, norm=True)
    norms = np.abs(norms)       # zero exactly at the degenerate points
    vals = pu.distinct(norms[norms > 0]).tolist()
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


@dataclass
class CmCheckReport:
    constant: Fraction
    index_l: int
    points: List[CmPointResult]
    violations: list
    checked: int


def verify_suborder_index(field: NumberField, l: int) -> bool:
    """Check l^2 = disc(O_F[sqrt(-d)]) / disc(Z[theta]) for the declared CM
    presentation (both orders computed inside Z[theta])."""
    cm = field.cm_structure
    if cm is None:
        raise NotCm("no CM presentation declared")
    sub = order_discriminant(field, cm.basis)
    full = order_discriminant(field)
    ratio = sub / full
    return ratio == l * l


def cm_obstruction_check(form: DecomposableForm, scan: FormScan,
                         index_l: int) -> CmCheckReport:
    """Integrality/ray dichotomy for binary forms with subfield coefficients.

    For each scanned point z = gamma + sqrt(-d) delta: when gamma and delta
    are independent over F the product of the normalized values is bounded
    below by |N_F(d)| times the exact rational N_F(det(gamma, delta))^2,
    which lies in (1/l^(4r)) N; otherwise delta = a gamma for an exact
    a in F and every place value sits on the ray through (1 + a sqrt(-d))^2.
    The per-place sine identity is decided once, as an identity of
    polynomials in the point, so it holds at every point, scanned or not.

    The whole batch is checked in integer arithmetic: det(gamma, delta) is
    a quadratic polynomial in the point coordinates, N_F(det)^2 is the
    field norm of det (K/F has degree two), and with common factor lists
    the exact value norm is the integer norm image of the factors.
    Per-point field arithmetic is left to the ray points and, when the
    factor lists differ between places, to the certified normalized values.
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
    # coefficients in F, factor matrices in SL_2(F)
    for v in range(form.r):
        for i in range(form.m):
            for c in form.factors[v][i]:
                if subfield_coordinates(field, cm, c) is None:
                    raise CoefficientsNotInF(f"place {v} factor {i}")
        h = MatrixK(field, [list(form.factors[v][i]) for i in range(2)])
        if not (h.det() == field.one):
            raise ValidationError(f"place {v}: factor matrix must have det 1")
    nd = _abs_norm_f(cm.d)
    scale = Fraction(index_l) ** (4 * r)
    constant = nd / scale

    polys = _cm_det_polys(field, cm, ((field.one, field.zero),
                                      (field.zero, field.one)))
    # the per-place sine identity |det(h gamma, h delta)|_v sigma_v(d) =
    # |f_v(z)|_v |sin(phi_1 - phi_2)|^2: conjugation commutes with every
    # embedding, so it is delta_y^2 = det^2 in F for y = w1 conj(w2), and
    # as s^2 = -d, delta_y = -det(gamma_w, delta_w): it reads det_w = +-det_z.
    # With F-coefficients det_w = det(h_v) det_z as polynomials, so at every
    # z with det_z != 0 it holds exactly when the polynomials agree up to sign
    signs = ([p.terms for p in polys], [(-p).terms for p in polys])
    sine_ok = all([p.terms for p in _cm_det_polys(field, cm, pair)] in signs
                  for pair in form.factors)
    chunks, (den,) = _int_image(field, [polys], scan.points)
    det_z = np.concatenate([image for _, (image,) in chunks], axis=1)
    prods, _ = _int_image(field, [(field.one,)], det_z.T, norm=True)
    common_factors = _common_factor_lists(form)
    if common_factors:
        norms, norm_den = _int_image(field, form.factors[0], scan.points,
                                     norm=True)
    prod_den = den ** field.degree
    results = []
    violations = []
    for idx, p in enumerate(prods.tolist()):
        if p == 0:
            results.append(_ray_branch(field, cm, idx, scan.coordinate(idx)))
            continue
        # independent branch: N_F(det)^2 = N_K(det) > 0
        prod = Fraction(p, prod_den)
        if (prod * scale).denominator != 1:
            violations.append((idx, f"norm product {prod} not in (1/l^{4*r})N"))
            continue
        # inequality prod_v |f_v(z)|_v >= |N_F(d)| * prod: exact via the field
        # norm when the factor lists agree across places, else certified
        rhs = nd * prod
        if common_factors:
            lhs_exact = Fraction(abs(int(norms[idx])), norm_den)
            if lhs_exact and lhs_exact < rhs:
                violations.append((idx, "exact inequality violation"))
                continue
        else:
            lhs = _certified_product(form, scan.coordinate(idx))
            if lhs.hi < rhs:
                violations.append((idx, "certified inequality violation"))
                continue
        if not sine_ok:
            violations.append((idx, "sine identity failed"))
            continue
        results.append(CmPointResult(idx, "norm-product", prod, None))
    return CmCheckReport(constant, index_l, results, violations,
                         checked=scan.npoints)


def _cm_det_polys(field, cm, pair):
    """Power-basis coordinates of det(gamma, delta) = gamma_1 delta_2 -
    gamma_2 delta_1, where gamma_i + relative_gen delta_i is the value of
    the i-th K-linear form of pair: rational quadratic MultiPolys in the
    point coordinates, split by the projections of split_cm."""
    parts = []
    for fac in pair:
        w = _linear_polys(field, fac)
        parts.append([[sum(a * x for a, x in zip(row, w)) for row in proj]
                      for proj in _cm_split_solver(field, cm)])
    (g1, d1), (g2, d2) = parts
    return [a - b for a, b in zip(_mul_polys(field, g1, d2),
                                  _mul_polys(field, g2, d1))]


def _mul_polys(field, a, b):
    """Power-basis coordinates of the product of two symbolic elements."""
    return [sum(x * y for x, y in zip(row, b)) for row in field.mult_matrix(a)]


def _abs_norm_f(x: FieldElement) -> Fraction:
    """|N_{F/Q}(x)| of an x in the CM subfield F, exactly: K/F has degree
    two, so N_{K/Q}(x) = N_{F/Q}(x)^2 and this is its square root."""
    n = abs(field_norm(x))
    num, den = math.isqrt(n.numerator), math.isqrt(n.denominator)
    if num * num != n.numerator or den * den != n.denominator:
        raise InvariantViolation(f"N_K/Q of an element of F is {n}, "
                                 "not a square")
    return Fraction(num, den)


def _ray_branch(field, cm, idx, z):
    """delta = a gamma exactly: f_v(z) = (1 + a sqrt(-d))^2 f_v(gamma).

    The point's N_F(det(gamma, delta))^2 is the exact integer 0, so
    det(gamma, delta) = 0 and delta = a gamma with a = d_i / g_i for a
    nonzero g_i; each factor is linear, so every place value of the binary
    quadratic form at z = (1 + a sqrt(-d)) gamma is (1 + a sqrt(-d))^2
    times its value at gamma."""
    (g1, d1), (g2, d2) = (split_cm(field, cm, x) for x in z)
    if g1.is_zero() and g2.is_zero():
        # z purely imaginary multiple: values are (-d) f_v(delta), still a ray
        return CmPointResult(idx, "ray", None, ("inf",))
    a = d1 / g1 if not g1.is_zero() else d2 / g2
    return CmPointResult(idx, "ray", None,
                         tuple(subfield_coordinates(field, cm, a)))
