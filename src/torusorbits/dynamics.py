"""Divergence and boundedness diagnostics for torus orbits.

The systole of a point (t_v g_v) is the minimum over nonzero lattice
vectors xi in Z[theta]^n of the product over places of the sup-norm of the
embedded image (squared at complex places), restricted to a coefficient
height box.  Bounded below means the point stays in a fixed compact part of
the quotient; decay to zero witnesses divergence.  Paths of torus elements
are realized as exact powers of a per-place base so every root value is an
exact rational, which keeps the boundedness criterion checks exact.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .decomp import MatrixK, MinorTable, cell_membership
from .errors import (CapExceeded, HypothesisViolated, MembershipFails,
                     PrecisionExhausted, ValidationError)
from .intervals import RInt
from .numfield import NumberField
from .polyutil import chunks, key_rows, row_keys
from .rootdata import RootSubset, WeylElement, identity_weyl
from .strata import OrbitInput, materialised, pair_representative

DIRECT_SCAN_CAP = 6_000_000
PRODUCT_BAND = Fraction(10 ** 6)    # criterion (ii)'s band (1/B, B)
BOUNDED_THRESHOLD = 1e-2            # least systole at or above: bounded below
DECAY_THRESHOLD = 1e-3              # last systole at or below: decaying


# -- torus paths --------------------------------------------------------------------


@dataclass(frozen=True)
class TorusPath:
    """Exponent schedules for the torus component at every place.

    schedules[v][k] is the tuple of n-1 simple-root exponents at step k;
    the realized diagonal at place v and step k has entries
    base_v^(n * e_i) for the unique trace-zero integer lift, so every root
    value is the exact rational base_v^(n * m_i).
    """
    n: int
    bases: tuple                 # one positive Fraction per place
    schedules: tuple             # schedules[v][k] = tuple of n-1 ints

    def __post_init__(self):
        if any(Fraction(b) <= 0 for b in self.bases):
            raise ValidationError("bases must be positive")
        steps = {len(s) for s in self.schedules}
        if len(steps) != 1 or 0 in steps:
            raise ValidationError(
                "all places need the same number of steps, at least one")
        for sched in self.schedules:
            for step in sched:
                if len(step) != self.n - 1:
                    raise ValidationError("need n-1 exponents per step")

    @property
    def r(self) -> int:
        return len(self.schedules)

    @property
    def steps(self) -> int:
        return len(self.schedules[0])

    def diagonal_exponents(self, v: int, k: int):
        """Trace-zero integer exponent vector at place v, step k."""
        m = self.schedules[v][k]
        n = self.n
        e = [sum(m[j] for j in range(i, n - 1)) for i in range(n - 1)] + [0]
        s = sum(e)
        return tuple(n * ei - s for ei in e)

    def realize(self, k: int):
        """Per-place diagonal entries as exact Fractions (det 1)."""
        out = []
        for v in range(self.r):
            b = Fraction(self.bases[v])
            out.append(tuple(b ** e for e in self.diagonal_exponents(v, k)))
        return out

    def root_values(self, v: int, k: int):
        """|alpha_i(t)| for the simple roots, exact (= base^(n m_i))."""
        b = Fraction(self.bases[v])
        n = self.n
        return tuple(b ** (n * m) for m in self.schedules[v][k])


# -- systole -----------------------------------------------------------------------


@dataclass
class SystoleStep:
    step: int
    value: float
    enclosure: tuple             # (lo, hi) floats of the certified value
    witness: tuple               # coefficient vector of ints (n * deg)


@dataclass
class SystoleTrace:
    steps: List[SystoleStep]
    height: int
    verdict: str                 # "bounded-below" | "decaying" | "inconclusive"
    bounded_margin: float
    final_value: float


def _numeric_component(field: NumberField, g: MatrixK, v: int):
    pl = field.places()[v]
    return np.array([[field.float_embed(x, pl) for x in row] for row in g.rows])


def systole(inp: OrbitInput, torus: Sequence[Sequence[Fraction]],
            height: int) -> Tuple[RInt, tuple]:
    """Minimum product of per-place sup-norms over the height box.

    torus: per place, the diagonal entries (exact rationals).  Returns the
    certified enclosure of the value at the witness, and the witness.
    The search runs in floats and the witness is re-evaluated exactly.  A
    box of at most DIRECT_SCAN_CAP points is searched whole (skipping only
    heads whose proved floor exceeds the minimum found), and the witness
    is the lexicographically first minimiser of the elementwise float
    values.  Larger boxes at two real places go through a Fincke-Pohst
    search over a ladder of place weights, no rung lost, whose ends are not
    proved to hold every candidate: its witness is the minimum that search
    found, not a certified minimum.  The one-step case of `run_path`.
    """
    return _systoles(inp, [torus], height)[0]


def _systoles(inp: OrbitInput, tori, height: int):
    """`systole` at each torus of a path, each component's float image
    formed once, the ellipsoid search run once over every step."""
    if height < 1:
        raise ValidationError("height must be at least 1")
    field, n = inp.field, inp.n
    dim = n * field.degree
    places = field.places()
    if any(len(torus) != len(places) or any(len(t) != n for t in torus)
           for torus in tori):
        raise ValidationError("need one diagonal entry per matrix row per place")
    gnums = [_numeric_component(field, inp.components[v], v)
             for v in range(inp.r)]
    # B[i, j deg + t] = t_i g_ij theta^t, elementwise, per step and place
    try:
        with np.errstate(over="ignore"):    # refused just below
            bmats = [[np.kron(np.array([float(x) for x in t])[:, None] * g,
                              field.float_basis(pl))
                      for t, g, pl in zip(torus, gnums, places)]
                     for torus in tori]
    except OverflowError:           # a torus entry past the float range
        raise PrecisionExhausted("the torus images overflow floats") from None
    if not all(np.isfinite(b).all() for step in bmats for b in step):
        raise PrecisionExhausted("the torus images overflow floats")
    exps = [1 if pl.is_real else 2 for pl in places]

    total = (2 * height + 1) ** dim
    if total <= DIRECT_SCAN_CAP:
        witnesses = [_direct_scan(b, exps, height, dim)[1] for b in bmats]
    elif inp.r == 2 and all(pl.is_real for pl in places):
        witnesses = _ellipsoid_scan(bmats, height, dim)
    else:
        raise CapExceeded(
            f"box of {total} points needs the two-real-place search path")
    return [(evaluate_product(inp, t, w), w) for t, w in zip(tori, witnesses)]


def _image(bmat, cols):
    """Image rows sum_j x_j B[i, j] of a point batch given by its coordinate
    columns, one contiguous row per image coordinate, summed elementwise
    from coordinate 0 to the last: a point's value is the same float in any
    batch, and negating the point negates it exactly."""
    img = np.multiply.outer(bmat[:, 0], cols[0])
    for j in range(1, len(cols)):
        img += np.multiply.outer(bmat[:, j], cols[j])
    return img


def _sup_product(images, exps, scratch, out):
    """out[k]: the product over places of the sup norm of image column k,
    squared at complex places; scratch is a float array of an image's shape.
    A product past the float range is inf, which no minimum takes."""
    for p, (img, e) in enumerate(zip(images, exps)):
        u = np.abs(img, out=scratch)[0]
        for row in scratch[1:]:
            np.maximum(u, row, out=u)
        with np.errstate(over="ignore"):
            if e == 2:
                np.multiply(u, u, out=u)
            if p:
                np.multiply(out, u, out=out)
            else:
                out[:] = u
    return out


def _value_array(bmats, exps, pts):
    pts = np.asarray(pts, dtype=float)
    images = [_image(b, pts.T) for b in bmats]
    return _sup_product(images, exps, np.empty(images[0].shape),
                        np.empty(len(pts)))


def _direct_scan(bmats, exps, height, dim):
    """The lexicographically first minimiser of the box's nonzero points,
    and its value.

    value(-x) == value(x) bit for bit, so that point has its first nonzero
    coordinate negative: it lies in the first half of the lexicographic
    grid, and only that half is searched.  The head (every coordinate but
    the last) runs over the first half of its own grid, which ends at the
    zero head; the last coordinate c is the kernel's last term.  Each head
    gets a floor, a proved lower bound on its values over every c
    (`_head_floors`), and `_scan_heads` visits the heads best first and
    stops at the first floor above the minimum found: the heads it skips
    hold no value at or below it.  Head k is the row key_rows decodes from k.
    """
    size = ((2 * height + 1) ** (dim - 1) + 1) // 2
    cols = list(key_rows(np.arange(size), height, dim - 1).T)
    heads = [_image(b, cols) for b in bmats]
    del cols
    floor = _head_floors(heads, [b[:, -1] for b in bmats], exps, height)
    return _scan_heads(heads, bmats, exps, height, floor)


def _scan_heads(heads, bmats, exps, height, floor):
    """The pruned pass of `_direct_scan`: heads in increasing floor order,
    FP_ROWS points at a time.  A chunk's heads run in increasing order,
    each over c from -height up, and its values are formed as the
    whole-box scan forms them (head image plus c times the last column), so
    a value is the same float in any chunk and its first minimum is the
    chunk's lexicographically first minimiser.  The zero head is masked for
    c >= 0, and ties across chunks are broken by comparing points.  The
    pass ends when the next floor exceeds the minimum found; a NaN floor
    (an overflowing image) sorts last and proves nothing, so with one the
    pass visits every head."""
    size, width = len(floor), 2 * height + 1
    step = max(1, FP_ROWS // width)
    order = np.argsort(floor)
    proved = floor[order[-1]] == floor[order[-1]]
    cs = np.arange(-height, height + 1)
    best_val, best = math.inf, None
    for start in range(0, size, step):
        if proved and floor[order[start]] > best_val:
            break
        sel = np.sort(order[start:start + step])
        images = [hd[:, sel, None] + np.multiply.outer(b[:, -1], cs)[:, None]
                  for hd, b in zip(heads, bmats)]
        vals = _sup_product(images, exps, np.empty(images[0].shape),
                            np.empty((len(sel), width)))
        if sel[-1] == size - 1:
            vals[-1, height:] = math.inf
        i, c = divmod(int(np.argmin(vals)), width)
        if vals[i, c] <= best_val:
            head = key_rows(sel[i:i + 1], height, bmats[0].shape[1] - 1)[0]
            pt = tuple(int(x) for x in head) + (c - height,)
            if vals[i, c] < best_val or pt < best:
                best_val, best = float(vals[i, c]), pt
    return best_val, best


def _error_bound(total, k, out=None):
    """A bound on the rounding error of a float sum of k terms x_j B_ij
    formed as `_image` forms them, one product and one addition at a time:
    Higham's a-priori bound gamma_k sum_j |x_j||B_ij| (Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1), with
    gamma_k = k u / (1 - k u) and u = 2^-53.  total is sum_j |x_j||B_ij| as
    computed in floats (|Re| + |Im| for a complex entry, which bounds the
    error's modulus, since each part of the sum is rounded on its own);
    gamma_k is doubled to cover the rounding of total and of this bound,
    and k 2^-1074 covers underflow.  Works on a float or, with out, an
    array in place."""
    gamma = k * 2.0 ** -53 / (1 - k * 2.0 ** -53)
    return np.add(np.multiply(total, 2 * gamma, out=out), k * 2.0 ** -1074,
                  out=out)


def _head_floors(heads, lasts, exps, height):
    """Per head, a lower bound on every float value `_scan_heads` computes
    for it, over the last coordinate c in [-height, height].

    With a = a head's float image row and b = its last column entry, the
    kernel rounds a + c b.  At a real place the floor of max_i |a_i + c b_i|
    is its exact minimum over the interval: the largest of its dual bounds,
    one per row (|a_i| - height |b_i|, the row at the nearer end) and one
    per pair of rows (|a_i b_j - a_j b_i| / (|b_i| + |b_j|), their
    crossing).  At a complex place it is the largest per-row distance from
    0 to the segment a_i + [-height, height] b_i.  From each bound comes
    off `_error_bound` with k = 16 of its row's T_i = |a_i| + height |b_i|
    (the larger of two for a pair): two roundings of the kernel's sum
    a + c b, two of its modulus, and at most twelve of the bound's own.
    The largest, at least 0, is at most the kernel's sup norm at that place
    for every c, and the places fold as `_sup_product` folds them: float
    rounding is monotone, so the floor's product is at most the value's.
    The work runs in a few preallocated arrays of one float per head.
    """
    size = heads[0].shape[1]
    lows = [np.zeros(size) for _ in heads]
    errs = [np.empty(size) for _ in heads[0]]
    t, u = np.empty(size), np.empty(size)
    v = np.empty(size) if 2 in exps else None
    for hd, b, e, low in zip(heads, lasts, exps, lows):
        for a, bi, err in zip(hd, b, errs):
            if e == 1:
                np.abs(a, out=t)
                reach = height * abs(bi)
            else:
                np.add(np.abs(a.real, out=t), np.abs(a.imag, out=u), out=t)
                reach = height * (abs(bi.real) + abs(bi.imag))
            _error_bound(np.add(t, reach, out=err), 16, out=err)
            if e == 1 or abs(bi) < 2.0 ** -1000:
                # |a_i + c b_i| >= |a_i| - height |b_i|
                np.subtract(np.abs(a, out=t), height * abs(bi), out=t)
            else:
                # along the unit direction r of b_i: the distance to its
                # line, and beyond the segment's end
                r = bi * (1 / abs(bi))
                np.subtract(np.multiply(a.imag, r.real, out=t),
                            np.multiply(a.real, r.imag, out=u), out=t)
                np.abs(t, out=t)
                np.add(np.multiply(a.real, r.real, out=u),
                       np.multiply(a.imag, r.imag, out=v), out=u)
                np.subtract(np.abs(u, out=u), height * abs(bi), out=u)
                np.hypot(t, np.maximum(u, 0.0, out=u), out=t)
            np.maximum(low, np.subtract(t, err, out=t), out=low)
        if e == 1:
            for i, j in itertools.combinations(range(len(b)), 2):
                s = abs(b[i]) + abs(b[j])
                if s >= 2.0 ** -1000:
                    np.subtract(np.multiply(hd[i], b[j] * (1 / s), out=t),
                                np.multiply(hd[j], b[i] * (1 / s), out=u),
                                out=t)
                    np.abs(t, out=t)
                    np.subtract(t, np.maximum(errs[i], errs[j], out=u),
                                out=t)
                    np.maximum(low, t, out=low)
    return _sup_product([low[None] for low in lows], exps, t[None], u)


def _ellipsoid_scan(bmats, height, dim):
    """Fincke-Pohst over a ladder of place weights (r = 2, real) at every
    step of a path: each step's witness from its image matrices.

    A candidate x with sup norms a = |B1 x| and b = |B2 x| has product
    value p = a b and balance point beta = b / a.  At a weight s^2 with
    s^2 / beta = t, s^2 ||B1 x||_2^2 + s^-2 ||B2 x||_2^2
    <= n (s^2 a^2 + s^-2 b^2) = n p (t + 1/t).  The rungs s^2 = lo 2^k are
    RUNG_RATIO = rho apart, so the rung nearest beta has t in
    [rho^-1/2, rho^1/2] and the radius c n p with c = rho^1/2 + rho^-1/2
    (3/sqrt 2 at rho = 2) holds x: the ladder covers every
    candidate whose balance point lies in [lo rho^-1/2, s^2_last rho^1/2].
    It runs until that range passes hi, so it contains
    [lo rho^-1/4, r rho^1/4], the range of the ladder rho^1/2 apart from
    lo up to its last weight r <= hi, with one rung more than half as
    many.  Powers of two keep each rung's float Gram the first rung's
    terms scaled exactly.

    The ends are not proved to hold every candidate: they divide by
    sigma_min(B_v) / sqrt(n) as if it bounded the place's sup norm over
    the box from below, but B_v is n x (n deg) and has a kernel, and unit
    multiples push that sup norm lower (acceptance 8's sl3 inputs have
    final witnesses below it, by up to (1 + sqrt 2)^-4).  The result is
    the minimum a search found, exact at its witness, not a certified
    minimum.  Each rung's float Gram is factored after `_ldl`'s diagonal
    shift, under which no rung is lost, barring over- or underflow.
    """
    n = bmats[0][0].shape[0]
    seeds, vals, grams = [], [], []
    for step in bmats:
        p_seed, witness = _direct_scan(step, [1, 1], 2, dim)
        # sigma_min(B_v) / sqrt(n): a scale for the ladder ends, not a bound
        sigma = [max(np.linalg.svd(b, compute_uv=False)[-1], 1e-300)
                 / math.sqrt(n) for b in step]
        u1max = float(np.abs(step[0]).sum(axis=1).max()) * height + 1e-300
        u2max = float(np.abs(step[1]).sum(axis=1).max()) * height + 1e-300
        with np.errstate(all="ignore"):     # refused by _rungs and below
            lo = max(sigma[1] ** 2 / p_seed, sigma[1] / u1max) / 16
            hi = min(p_seed / sigma[0] ** 2, u2max / sigma[0]) * 16
            s2 = np.array(_rungs(float(lo), float(hi) * 1.0001))[:, None, None]
            g1, g2 = (sum(np.multiply.outer(r, r) for r in b) for b in step)
        grams.append((g1, g2, s2))
        seeds.append(witness)
        vals.append(p_seed)
    # every step's float rung Grams in one stack, which _ldl factors in place
    sizes = [len(s2) for *_, s2 in grams]
    qs = np.empty((sum(sizes), dim, dim))
    for (g1, g2, s2), part in zip(grams, np.split(qs, np.cumsum(sizes)[:-1])):
        with np.errstate(all="ignore"):     # refused just below
            np.add(g1 * s2, g2 / s2, out=part)
    if not np.isfinite(qs).all():
        raise PrecisionExhausted("the ladder's Grams overflow floats")
    group = np.repeat(np.arange(len(bmats)), sizes)
    collections.deque(_ladder(bmats, qs, group, seeds, vals, height), maxlen=0)
    return seeds


RUNG_RATIO = 2.0        # s^2 from one ladder rung to the next
# x^T q x <= LADDER_RADIUS n p at the rung nearest x's balance point
LADDER_RADIUS = (RUNG_RATIO + 1.0) / math.sqrt(RUNG_RATIO)


def _rungs(lo, hi):
    """The ladder's weights s^2 = lo RUNG_RATIO^k, from lo until the top
    of the balance points they cover, s^2 RUNG_RATIO^1/2, passes hi (none
    when lo > hi).  The relative 1e-9 pad on hi absorbs the rounding of
    that product.  Ends that are not finite and positive are refused: the
    ladder would never end at lo = 0 or hi = inf."""
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise PrecisionExhausted(f"ladder ends {lo!r}, {hi!r} out of range")
    rungs = [lo] if lo <= hi else []
    while rungs and rungs[-1] * math.sqrt(RUNG_RATIO) <= hi * (1 + 1e-9):
        rungs.append(rungs[-1] * RUNG_RATIO)
    return rungs


def _ladder(bmats, qs, group, best, best_val, height):
    """Walk each step's ladder from its seed (step k: image matrices
    bmats[k], rung Grams the stack qs at the nondecreasing group's entries
    k, best[k] at best_val[k], both updated in place), yielding each rung's
    new candidates in order as (step, indices in qs, vectors).  A rung
    searches x^T q x <= radius * best_val, keeps what neither the seed nor
    an earlier rung of its step yielded, and takes its first minimum if
    below best_val.  A pass searches, for each step with rungs left, a
    window of its next rungs at its own bound; the first rung holding a
    value below best_val ends the step's pass and drops what follows it.
    The next window has FIRST_WINDOW rungs after such a hit, twice as many
    as the last one otherwise."""
    radius = LADDER_RADIUS * bmats[0][0].shape[0] * 1.0001
    d, lmat = _ldl(qs)
    steps = np.arange(len(best))
    side = max(height, len(best), int(np.abs(best).max()))
    seen = _group_keys(steps, np.array(best), side)
    start, end = (np.searchsorted(group, steps, side=e)
                  for e in ("left", "right"))
    window = np.full(len(best), FIRST_WINDOW)
    while (live := np.flatnonzero(start < end)).size:
        stop = np.minimum(start + window, end)
        rows = np.concatenate([np.arange(start[k], stop[k]) for k in live])
        hit, kept = np.zeros(len(best), dtype=bool), [seen]
        for ids, pts in _fincke_pohst(d, lmat, rows,
                                      radius * np.array(best_val)[group[rows]],
                                      height, group, seen, side):
            keep = ids < stop[group[ids]]
            ids, pts = ids[keep], pts[keep]
            g = group[ids]
            cuts = np.flatnonzero(np.diff(g, prepend=-1, append=-1))
            for k, a, b in zip(g[cuts[:-1]], cuts, cuts[1:]):
                sid, spts = ids[a:b], pts[a:b]
                vals = _value_array(bmats[k], [1, 1], spts)
                below = np.flatnonzero(vals < best_val[k])
                if len(below):
                    # the rung that ends the pass, and its first minimum
                    hit[k], stop[k] = True, sid[below[0]] + 1
                    b = np.searchsorted(sid, stop[k])
                    sid, spts, vals = sid[:b], spts[:b], vals[:b]
                    i = np.searchsorted(sid, stop[k] - 1)
                    i += int(np.argmin(vals[i:]))
                    best_val[k] = float(vals[i])
                    best[k] = tuple(int(c) for c in spts[i])
                kept.append(_group_keys(np.full(len(sid), k), spts, side))
                yield k, sid, spts
        seen = np.sort(np.concatenate(kept))
        start[live] = stop[live]
        window[live] = np.where(hit[live], FIRST_WINDOW, 2 * window[live])


FP_ROWS = 1 << 11      # a bound on the working memory below
FIRST_WINDOW = 4        # a step's first window, and its window after a hit


def _group_keys(group, pts, side):
    """row_keys of the (group, vector) rows."""
    return row_keys(np.column_stack([group, pts]), side)


def _fincke_pohst(d, lmat, rows, bound, height, group, seen, side):
    """Integer x != 0 with x^T q x <= bound and |x|_inf <= height for the
    matrices q at the given rows of a stack factored by `_ldl`, each with
    its own bound, that no earlier row of its group found and seen (sorted
    `_group_keys`) does not hold: chunks of stack index and vector arrays,
    in depth-first order from the last coordinate down, row by row, highest
    nonzero coordinate positive."""
    dim = d.shape[1]
    xs = np.zeros((len(rows), dim), dtype=np.min_scalar_type(-side))
    for ids, x in _fp_level(d, lmat, height, dim - 1, rows, xs,
                            bound * (1 + 1e-9) + 1e-12,
                            np.zeros(len(rows), dtype=np.int64), group, side):
        keys = _group_keys(group[ids], x, side)
        first = np.unique(keys, return_index=True)[1]
        pos = np.searchsorted(seen, keys[first])
        new = pos == len(seen)
        new[~new] = seen[pos[~new]] != keys[first[~new]]
        seen = np.insert(seen, pos[new], keys[first[new]])
        first = np.sort(first[new])
        if len(first):
            yield ids[first], x[first]


def _fp_level(d, lmat, height, k, ids, xs, rem, sign, group, side):
    """The leaves below level k of `_fincke_pohst` as (stack index, vector)
    chunks, breadth first in floats with a small safety pad: centres summed
    term by term from the coordinate above, children formed in order by
    np.repeat, FP_ROWS at a time (parent chunks run to the leaves in turn),
    the bound left updated by d_k np.float_power(v - c, 2), the C library's
    pow that Python's ** calls (numpy's ** on arrays may differ in the last
    bit), or by (v - c) (d_k (v - c)) where that square overflows.  A row
    whose bound left is negative has no children."""
    c = np.zeros(len(ids))
    for i in range(k + 1, d.shape[1]):
        c += lmat[ids, i, k] * xs[:, i]
    c, dk = -c, d[ids, k]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # NaN half: no range; inf half (rem / dk overflows): the box clamps
        half = np.sqrt(rem / dk)
        lo = np.where(c - half < -height, -height, np.ceil(c - half - 1e-9))
        hi = np.where(c + half > height, height, np.floor(c + half + 1e-9))
        count = np.where(half >= 0, np.maximum(hi - lo + 1, 0), 0).astype(int)
    if not k:
        # rows of one group with an earlier row's tail and x_0 range, times
        # sign, add nothing
        live = np.flatnonzero((count > 0) & (sign != 0))
        f = sign[live, None]
        desc = np.hstack([group[ids[live], None], xs[live, 1:] * f, np.sort(
            np.column_stack([lo[live], hi[live]]) * f, axis=1).astype(int)])
        first = np.unique(row_keys(desc, side), return_index=True)[1]
        count[np.delete(live, first)] = 0
    del half, hi                # not held through the recursion below
    for part in chunks(count, FP_ROWS):
        sizes = count[part]
        rep = np.repeat(np.arange(part.start, part.stop), sizes)
        v = lo[rep].astype(np.int64) + np.arange(len(rep)) \
            - np.repeat(np.cumsum(sizes) - sizes, sizes)
        s = sign[rep]
        if k:
            x = xs[rep]
            x[:, k] = v
            t = v - c[rep]
            with np.errstate(over="ignore"):
                sq = np.float_power(t, 2.0)
                t = rem[rep] - np.where(sq < math.inf, dk[rep] * sq,
                                        t * (dk[rep] * t))
            child = (ids[rep], x, t, np.where(s != 0, s, np.sign(v)))
            del rep, v, s, x, t, sq     # the child holds what it needs
            yield from _fp_level(d, lmat, height, k - 1, *child, group, side)
        else:
            keep = (s != 0) | (v != 0)
            rep, v, s = rep[keep], v[keep], s[keep]
            x = xs[rep] * np.where(s != 0, s, 1)[:, None]
            x[:, 0] = np.where(s != 0, s * v, np.abs(v))
            yield ids[rep], x


def _ldl(qs):
    """LDL^T in floats of every symmetric matrix of the stack qs, read from
    its lower triangle, its diagonal first raised by the relative shift
    delta: d (a row each) and qs, overwritten below its diagonal by L.
    Column k: w_ik = a_ik - sum_j L_ij (d_j L_kj) from j = 0 up, d_k = w_kk,
    L_ik = w_ik / d_k, elementwise, so a matrix's factor is the same floats
    in any stack.  A pivot not positive and finite makes the matrix's d
    NaN, in which the enumeration finds nothing.

    Why delta = 2 dim (gamma_{dim+2} + gamma_{dim+1}), gamma_m = m u / (1 -
    m u), u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed.; H is a matrix's diagonal scaling): a rung's Gram s^2 B1^T B1 +
    B2^T B2 / s^2, at most dim rows per B, is positive semidefinite, and
    forming it moves entry ij by at most gamma_{dim+2} sqrt(q_ii q_jj), so
    its float H has lambda_min >= -dim gamma_{dim+2} / (1 - gamma_{dim+2})
    before the shift, which adds about delta.  The loop gives L D L^T = a +
    E, |E| <= gamma_{dim+1} |L||D||L^T|, a shifted (two roundings a term,
    the subtractions, the division and the shift: Lemma 8.4), as Cholesky
    does (Theorem 10.3), so Demmel's condition carries over (Theorem 10.7):
    every pivot is positive when lambda_min(H) > dim gamma_{dim+1} / (1 -
    gamma_{dim+1}), as delta ensures with room for its own rounding.  So
    every rung factors, barring over- or underflow, into the ellipsoid of a
    matrix within O(dim u) of its form, fl(q)'s own order."""
    rows, dim = qs.shape[:2]
    if not (qs.max(initial=0.0) < math.inf and qs.min(initial=0.0) > -math.inf):
        raise OverflowError("cannot factor a non-finite matrix")
    gamma = [m * 2.0 ** -53 / (1 - m * 2.0 ** -53) for m in (dim + 1, dim + 2)]
    d = np.empty((rows, dim))
    with np.errstate(all="ignore"):
        for k in range(dim):
            w = qs[:, k:, k] * 1.0
            w[:, 0] *= 1 + 2 * dim * sum(gamma)
            for j in range(k):
                w -= qs[:, k:, j] * (d[:, j] * qs[:, k, j])[:, None]
            d[:, k] = w[:, 0]
            qs[:, k + 1:, k] = w[:, 1:] / w[:, :1]
        d[~((d > 0) & (d < math.inf)).all(axis=1)] = math.nan
    return d, qs


def evaluate_product(inp: OrbitInput, torus, witness) -> RInt:
    """Exact re-evaluation of the product value at a witness vector."""
    field = inp.field
    n = inp.n
    deg = field.degree
    xi = [field.element([int(c) for c in witness[j * deg:(j + 1) * deg]])
          for j in range(n)]
    places = field.places()
    acc = RInt(1)
    for v in range(inp.r):
        g = inp.components[v]
        w = [field.from_rational(torus[v][i]) * field.dot(g.rows[i], xi)
             for i in range(n)]
        sup = None
        for entry in w:
            m = field.normalized_abs(entry, places[v],
                                     max_width=Fraction(1, 2 ** 64)) \
                if not entry.is_zero() else RInt(0)
            sup = m if sup is None else RInt(max(sup.lo, m.lo), max(sup.hi, m.hi))
        acc = acc * sup
    return acc


def run_path(inp: OrbitInput, path: TorusPath, height: int) -> SystoleTrace:
    """Systole along the realized path with a threshold verdict
    (BOUNDED_THRESHOLD on the least value, DECAY_THRESHOLD on the last
    enclosure's upper end: a witness proves only a systole at most that)."""
    if path.r != inp.r or path.n != inp.n:
        raise ValidationError("path shape does not match the input")
    found = _systoles(inp, [path.realize(k) for k in range(path.steps)], height)
    steps = [SystoleStep(k, float(enc.mid), (float(enc.lo), float(enc.hi)), wit)
             for k, (enc, wit) in enumerate(found)]
    values = [s.value for s in steps]
    final = values[-1]
    margin = min(values)
    if margin >= BOUNDED_THRESHOLD:
        verdict = "bounded-below"
    elif steps[-1].enclosure[1] <= DECAY_THRESHOLD:
        verdict = "decaying"
    else:
        verdict = "inconclusive"
    return SystoleTrace(steps, height, verdict, margin, final)


# -- boundedness criterion -----------------------------------------------------------


@dataclass
class BoundednessReport:
    membership: bool             # (i): g1 g2^{-1} in V^- P for the subset
    products_bounded: bool       # (ii): root products stay in a fixed band
    product_band: tuple          # (inf, sup) over steps and roots, floats
    trace: SystoleTrace
    predicted_bounded: bool
    observed_bounded: bool
    agrees: bool


def check_boundedness(g1: MatrixK, g2: MatrixK, subset: RootSubset,
                      path: TorusPath, C: Fraction,
                      height: int = 20) -> BoundednessReport:
    """Exact criterion check against the observed systole trace.

    The path must conform to the hypothesis shape: at the first place every
    root value stays above 1/C; at the second place the root values off the
    subset decay to zero while those on the subset stay inside (1/C, C).
    The report carries (i) exact cell membership, read from the boundary
    minors of h = g1 g2^{-1} (decomp.cell_membership), (ii) whether the
    products |alpha(s)|_1 |alpha(t)|_2 stay within a band, and the trace
    verdict; the criterion says bounded exactly when (i) and (ii) hold.
    """
    C = Fraction(C)
    if C <= 1:
        raise ValidationError("C must exceed 1")
    if path.r != 2:
        raise HypothesisViolated("the criterion concerns two places")
    n = path.n
    simple_idx = list(range(1, n))
    # hypothesis conformance, exact
    for k in range(path.steps):
        svals = path.root_values(0, k)
        for val in svals:
            if not val > 1 / C:
                raise HypothesisViolated("first place root value fell below 1/C")
        tvals = path.root_values(1, k)
        for i, val in zip(simple_idx, tvals):
            if i in subset.simples and not (1 / C < val < C):
                raise HypothesisViolated("subset root left the (1/C, C) band")
    for i_pos, i in enumerate(simple_idx):
        if i in subset.simples:
            continue
        seq = [path.root_values(1, k)[i_pos] for k in range(path.steps)]
        if any(b > a for a, b in zip(seq, seq[1:])) or not seq[-1] < min(1 / C, seq[0] / 4):
            raise HypothesisViolated(
                f"root {i} at the second place does not decay")

    e = identity_weyl(g1.n)
    membership = cell_membership(g1 * g2.inverse(), subset, e, e)

    prods = []
    for k in range(path.steps):
        sv = path.root_values(0, k)
        tv = path.root_values(1, k)
        prods.extend(a * b for a, b in zip(sv, tv))
    sup = max(prods)
    inf = min(prods)
    products_bounded = sup < PRODUCT_BAND and inf > 1 / PRODUCT_BAND

    inp = OrbitInput((g1, g2))
    trace = run_path(inp, path, height)
    predicted = membership and products_bounded
    observed = trace.verdict == "bounded-below"
    return BoundednessReport(membership, products_bounded,
                             (float(inf), float(sup)), trace, predicted,
                             observed, predicted == observed)


# -- limit prediction -----------------------------------------------------------------


def predicted_limit(inp: OrbitInput, subset: RootSubset, w1: WeylElement,
                    w2: WeylElement):
    """The representative of the stratum the path drifts into.

    Exactly the orbit representative attached by the stratification
    (strata.pair_representative): from w1^{-1} h w2 = v^- z v^+, the pair
    (w1 (v^-)^{-1} w1^{-1} g1, w2 v^+ w2^{-1} g2).  Raises MembershipFails
    when the cell misses h.
    """
    if inp.r != 2:
        raise ValidationError("limit prediction handles two places")
    g1, g2 = inp.components
    table = MinorTable(g1 * g2.inverse())
    rep = pair_representative(table, subset, w1, w2)
    if rep is None:
        raise MembershipFails("the quotient misses the requested cell")
    return materialised(table, rep, table.ids(g2))
