import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

from torusorbits import decomp as dc
from torusorbits import dynamics as dy
from torusorbits import rootdata as rd
from torusorbits import strata as st
from torusorbits.errors import (HypothesisViolated, MembershipFails,
                                PrecisionExhausted)
from torusorbits.intervals import RInt

from conftest import constant_path, random_sl
from gauss_oracle import determinant


def ramp_path(n, steps, s_rate=1, t_rate=-1, root_index=None):
    """Two-place path: one simple root moves, the rest stay put."""
    idx = (n - 2) if root_index is None else root_index

    def step(k, rate):
        e = [0] * (n - 1)
        e[idx] = rate * k
        return tuple(e)

    return dy.TorusPath(n, (Fraction(2), Fraction(2)),
                        (tuple(step(k, s_rate) for k in range(steps)),
                         tuple(step(k, t_rate) for k in range(steps))))


# -- systole --------------------------------------------------------------------


def test_systole_identity(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((i2, i2))
    enc, wit = dy.systole(inp, [(Fraction(1), Fraction(1))] * 2, 2)
    assert enc.contains(1)
    assert any(wit)


def test_systole_decays_with_scaling(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((i2, i2))
    a = Fraction(2) ** 8
    enc, wit = dy.systole(inp, [(a, 1 / a), (Fraction(1), Fraction(1))], 4)
    assert float(enc.mid) <= float(1 / a) + 1e-12
    # the witness realizes the reported value exactly
    again = dy.evaluate_product(inp, [(a, 1 / a), (Fraction(1), Fraction(1))], wit)
    assert again.overlaps(enc)


@pytest.mark.filterwarnings("error")
def test_systole_takes_products_past_the_float_range(Ksqrt2):
    """At the torus 2^(+-1020), the sup product of a point with both
    coordinates nonzero passes the float range: it is inf, with no numpy
    warning, and the minimum 1 sits on the first axis, at a unit."""
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    a = Fraction(2) ** 1020
    torus = [(a, 1 / a), (1 / a, a)]
    enc, wit = dy.systole(st.OrbitInput((i2, i2)), torus, 3)
    assert enc.contains(1) and wit[2:] == (0, 0)


def test_systole_monotone_in_height(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    g = dc.unipotent_matrix(Ksqrt2, 2, {(1, 0): Ksqrt2.element([0, 1])})
    inp = st.OrbitInput((g, i2))
    torus = [(Fraction(4), Fraction(1, 4)), (Fraction(1, 2), Fraction(2))]
    prev = None
    for h in (1, 2, 4, 6):
        enc, _ = dy.systole(inp, torus, h)
        if prev is not None:
            assert enc.lo <= prev.hi + Fraction(1, 10 ** 12)
        prev = enc


def test_systole_invariant_under_unit_monomial(Ksqrt2):
    # left multiplication by a monomial unit matrix permutes and unit-scales
    # the lattice, which the product of all places cannot see
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    u = Ksqrt2.element([1, 1])
    mono = dc.MatrixK(Ksqrt2, [[Ksqrt2.zero, u], [-(u.inverse()), Ksqrt2.zero]])
    assert mono.det() == Ksqrt2.one
    g = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]])
    torus = [(Fraction(2), Fraction(1, 2))] * 2
    inp1 = st.OrbitInput((g, i2))
    # right multiplication by the monomial permutes the scan lattice
    inp2 = st.OrbitInput((g * mono, mono))
    e1, w1 = dy.systole(inp1, torus, 6)
    e2, w2 = dy.systole(inp2, torus, 8)
    assert abs(float(e1.mid) - float(e2.mid)) < 1e-9


def test_systole_at_complex_places_is_the_box_minimum(Kzeta8):
    # every nonzero point of the height-1 box up to sign, evaluated exactly;
    # unit multiples tie, so values are compared, not witnesses
    rng = random.Random(41)
    inp = st.OrbitInput((random_sl(Kzeta8, 2, rng), random_sl(Kzeta8, 2, rng)))
    torus = [(Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(2))]
    enc, _ = dy.systole(inp, torus, 1)
    half = [p for p in itertools.product((-1, 0, 1), repeat=8)
            if any(p) and next(c for c in p if c) > 0]
    assert len(half) == 3280
    encs = [dy.evaluate_product(inp, torus, p) for p in half]
    assert enc.overlaps(min(encs, key=lambda e: e.mid))
    assert enc.lo <= min(e.hi for e in encs)


# -- the elementwise image kernel and the half-box scan ------------------------


def full_box_scan(bmats, exps, height, dim):
    """Every nonzero point of the box in lexicographic order and the first
    minimum of their values: the scan the half box replaced, kept as its
    oracle."""
    pts = np.array([p for p in itertools.product(range(-height, height + 1),
                                                 repeat=dim) if any(p)])
    vals = dy._value_array(bmats, exps, pts)
    i = int(np.argmin(vals))
    return float(vals[i]), tuple(int(x) for x in pts[i])


@hs.composite
def scan_inputs(draw):
    """Image matrices at one or two places, real or complex, 1-3 rows by
    2-6 columns, and a height of 1 or 2; small integer entries half the
    time, which force exact ties between distinct points."""
    dim = draw(hs.integers(2, 6))
    rows = draw(hs.integers(1, 3))
    entry = draw(hs.sampled_from([small, hs.integers(-3, 3).map(float)]))

    def matrix():
        return np.array([[draw(entry) for _ in range(dim)]
                         for _ in range(rows)])

    bmats, exps = [], []
    for _ in range(draw(hs.integers(1, 2))):
        if draw(hs.booleans()):
            bmats.append(matrix() + 1j * matrix())
            exps.append(2)
        else:
            bmats.append(matrix())
            exps.append(1)
    return bmats, exps, draw(hs.integers(1, 2)), dim


@settings(max_examples=150, deadline=None)
@given(scan_inputs())
def test_direct_scan_matches_full_box_oracle(inp):
    # the same witness and the same value, bit for bit
    bmats, exps, height, dim = inp
    val, wit = dy._direct_scan(bmats, exps, height, dim)
    want_val, want_wit = full_box_scan(bmats, exps, height, dim)
    assert wit == want_wit
    assert val.hex() == want_val.hex()


@settings(max_examples=100, deadline=None)
@given(scan_inputs(), hs.sampled_from([1, 12]))
def test_pruned_scan_matches_full_box_oracle_in_small_chunks(inp, cap):
    # one to four heads a chunk: a tie in a later chunk still goes to the
    # lexicographically first point, and the pass stops only above the
    # minimum, bit for bit as the whole box
    bmats, exps, height, dim = inp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dy, "FP_ROWS", cap)
        val, wit = dy._direct_scan(bmats, exps, height, dim)
    want_val, want_wit = full_box_scan(bmats, exps, height, dim)
    assert wit == want_wit
    assert val.hex() == want_val.hex()


@settings(max_examples=60, deadline=None)
@given(scan_inputs(), hs.integers(0, 2 ** 32 - 1))
def test_values_do_not_depend_on_batch_or_sign(inp, seed):
    # a batch's values are its rows' values one at a time, and value(x) is
    # value(-x), bit for bit
    bmats, exps, height, dim = inp
    pts = np.random.default_rng(seed).integers(-height, height + 1,
                                               (64, dim))
    vals = dy._value_array(bmats, exps, pts)
    rows = [dy._value_array(bmats, exps, pts[i:i + 1])[0]
            for i in range(len(pts))]
    assert [v.hex() for v in vals] == [float(v).hex() for v in rows]
    assert [v.hex() for v in vals] == \
        [v.hex() for v in dy._value_array(bmats, exps, -pts)]


@hs.composite
def floor_inputs(draw):
    """scan_inputs at one to three places, with entries of any size up to
    2^+-30 or small integers, and rows scaled by powers of two up to
    2^+-20 as a torus element scales them.  With two rows, the first place
    may be real with the head (-1, 0, ..., 0) rising in one row and falling
    in the other to meet at V at an integer c0, up to the rounding of its
    entries: the minimum sits on a crossing of rows at a point of the box."""
    dim = draw(hs.integers(2, 5))
    rows = draw(hs.integers(1, 3))
    entry = draw(hs.sampled_from([
        small, hs.integers(-3, 3).map(float),
        hs.builds(math.ldexp, small, hs.integers(-30, 30))]))

    def matrix():
        scale = [math.ldexp(1.0, draw(hs.integers(-20, 20)))
                 for _ in range(rows)]
        return np.array([[draw(entry) * scale[i] for _ in range(dim)]
                         for i in range(rows)])

    bmats, exps = [], []
    for _ in range(draw(hs.integers(1, 3))):
        if draw(hs.booleans()):
            bmats.append(matrix() + 1j * matrix())
            exps.append(2)
        else:
            bmats.append(matrix())
            exps.append(1)
    height = draw(hs.integers(1, max(h for h in (1, 2, 3)
                                     if (2 * h + 1) ** dim <= 3000)))
    if rows == 2 and draw(hs.booleans()):
        c0 = draw(hs.integers(-height, height))
        value = draw(hs.floats(0.1, 4))
        q, s = draw(hs.floats(0.1, 4)), -draw(hs.floats(0.1, 4))
        b = np.array([[draw(small) for _ in range(dim)] for _ in range(2)])
        b[:, 0] = c0 * q - value, c0 * s - value
        b[:, -1] = q, s
        bmats[0], exps[0] = b, 1
    return bmats, exps, height, dim


@settings(max_examples=300, deadline=None)
@given(floor_inputs())
def test_head_floor_bounds_every_kernel_value(inp):
    # for every head and every last coordinate c, the floor is at most the
    # float value the scan computes
    bmats, exps, height, dim = inp
    shape = (2 * height + 1,) * (dim - 1)
    size = (math.prod(shape) + 1) // 2
    cols = [x - height for x in np.unravel_index(np.arange(size), shape)]
    heads = [dy._image(b, cols) for b in bmats]
    floor = dy._head_floors(heads, [b[:, -1] for b in bmats], exps, height)
    assert floor.shape == (size,)
    for c in range(-height, height + 1):
        vals = dy._sup_product([hd + c * b[:, -1:]
                                for hd, b in zip(heads, bmats)],
                               exps, np.empty(heads[0].shape), np.empty(size))
        bad = np.flatnonzero(~(floor <= vals))
        assert len(bad) == 0, (c, bad[:3], floor[bad[:3]], vals[bad[:3]])


def test_head_floor_is_the_exact_minimum_on_integer_rows():
    # one real place, rows a + c b with small integer entries: the floor is
    # the exact minimum over c in [-h, h] of max_i |a_i + c b_i|, which
    # these crossings reach at integer c
    b = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    height = 3
    shape = (2 * height + 1,) * 2
    size = (math.prod(shape) + 1) // 2
    cols = [x - height for x in np.unravel_index(np.arange(size), shape)]
    heads = [dy._image(b, cols)]
    floor = dy._head_floors(heads, [b[:, -1]], [1], height)
    want = [min(max(abs(x + c), abs(y - c)) for c in np.linspace(-3, 3, 601))
            for x, y in zip(*cols)]
    assert np.allclose(floor, want, rtol=1e-12, atol=1e-12)


def test_error_bound_is_gamma_k():
    # 2 gamma_k times the sum of magnitudes, plus k subnormal units
    u, tiny = 2.0 ** -53, 2.0 ** -1074
    assert dy._error_bound(1.0, 2) == 2 * (2 * u / (1 - 2 * u)) + 2 * tiny
    out = np.array([0.0, 3.0])
    assert dy._error_bound(out, 16, out=out) is out
    assert out[0] == 16 * tiny and out[1] > 3 * 32 * u


# -- the rung factor and the Fincke-Pohst enumeration -------------------------


def bareiss_ldl(qs):
    """LDL^T of every symmetric float matrix of the stack qs, read from its
    lower triangle, exactly: the indices of the positive definite ones and
    their d (a row each) and L as correctly rounded floats.  The factor the
    ellipsoid search ran before the shifted float one, kept as the oracle
    of the float Grams' exact positivity.

    The entries are exact dyadic rationals, so a power-of-two denominator S
    per matrix makes them integers.  Fraction-free (Bareiss) elimination of
    those, on object arrays of Python ints, leaves D_k = S^k det q[:k, :k]
    on the diagonal and the numerators of L below it: d_k = D_k / (D_{k-1}
    S) and L_ik = M_ik / D_k, each a correctly rounded int true division.
    A matrix leaves at a pivot D_k <= 0."""
    rows, dim = qs.shape[:2]
    low, (i, j) = np.tril_indices(dim), np.tril_indices(dim, -1)
    # entry = num 2^e with num odd or 0; S = 2^s clears the denominators
    mant, e = np.frexp(qs[:, low[0], low[1]])
    num = (mant * 2.0 ** 53).astype(np.int64)
    tz = np.frexp((num & -num).astype(float))[1] - 1
    e = np.where(num != 0, e - 53 + tz, 0)
    s = (-e.min(axis=1, initial=0)).astype(object)
    m = np.empty((rows, dim, dim), dtype=object)
    m[:, low[0], low[1]] = (num >> np.maximum(tz, 0)).astype(object) \
        << (e + s[:, None]).astype(object)
    idx, scale, prev = np.arange(rows), 1 << s, np.ones_like(s)
    d, lmat = np.empty((rows, dim)), np.zeros((rows, dim, dim))
    for k in range(dim):
        ok = m[:, k, k] > 0
        idx, m, scale, prev = (a[ok] for a in (idx, m, scale, prev))
        piv = m[:, k, k]
        d[idx, k] = piv / (prev * scale)
        r, c = (a + k + 1 for a in np.tril_indices(dim - k - 1))
        m[:, r, c] = (m[:, r, c] * piv[:, None]
                      - m[:, r, k] * m[:, c, k]) // prev[:, None]
        prev = piv
    lmat[idx[:, None], i, j] = m[:, i, j] / m[:, j, j]
    return idx, d[idx], lmat[idx]


def gamma(m):
    """gamma_m = m u / (1 - m u), u = 2^-53, as a rational."""
    u = Fraction(1, 2 ** 53)
    return m * u / (1 - m * u)


def ldl_shift(dim):
    """1 + delta, the factor `_ldl` raises a dim x dim diagonal by: its d
    of the identity."""
    return float(dy._ldl(np.eye(dim)[None])[0][0, 0])


def backward_error_holds(q, d, lmat):
    """|L D L^T - (q + delta diag q)| <= gamma_{dim+1} |L| |D| |L^T|
    entrywise, in rationals: the bound of `_ldl`'s docstring.  A product or
    quotient that underflows is off by up to 2^-1075 more (Higham, section
    2.1), so entry (i, j <= i) also gets 2^-1074 for the shift or the
    division by d_j (times |d_j|) and for each term's two products (times
    1 and |L_im|)."""
    n = len(d)
    delta = Fraction(ldl_shift(n)) - 1
    low = [[Fraction(lmat[i, j]) if j < i else Fraction(int(i == j))
            for j in range(n)] for i in range(n)]
    diag = [Fraction(x) for x in d]
    tiny = Fraction(2) ** -1074
    for i in range(n):
        for j in range(i + 1):
            terms = [low[i][m] * diag[m] * low[j][m] for m in range(j + 1)]
            a = Fraction(q[i, j]) * (1 + delta if i == j else 1)
            under = tiny * (1 + abs(diag[j])
                            + sum(1 + abs(low[i][m]) for m in range(j)))
            if abs(sum(terms) - a) > gamma(n + 1) * sum(map(abs, terms)) \
                    + under:
                return False
    return True


def recursive_fincke_pohst(q, bound, height, seen):
    """The recursive enumeration with the caller-side dedupe that the flat
    loop replaced, on `_ldl`'s factor of q alone: the same vectors in the
    same order."""
    d, lf = (a[0].tolist() for a in dy._ldl(q[None].copy()))
    dim = len(d)
    pad = bound * (1 + 1e-9) + 1e-12
    x = [0] * dim
    out = []

    def rec(k, rem):
        if k < 0:
            if any(x):
                top = next(i for i in reversed(range(dim)) if x[i])
                cand = tuple(x) if x[top] > 0 else tuple(-c for c in x)
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
            return
        center = -sum(lf[j][k] * x[j] for j in range(k + 1, dim))
        if not (d[k] > 0 and rem >= 0):
            return
        half = math.sqrt(rem / d[k])
        if math.isinf(half):        # the quotient overflowed: all of the box
            lo, hi = -height, height
        else:
            lo = max(-height, math.ceil(center - half - 1e-9))
            hi = min(height, math.floor(center + half + 1e-9))
        for xv in range(lo, hi + 1):
            x[k] = xv
            t = xv - center
            try:
                term = d[k] * t ** 2
            except OverflowError:       # the square alone overflows
                term = t * (d[k] * t)
            rec(k - 1, rem - term)
        x[k] = 0

    rec(dim - 1, pad)
    return out


def sequential_ladder(bmats, qs, best, best_val, height):
    """The rung-by-rung ladder the batched one replaced, on the recursive
    enumeration and `_ldl` rung by rung: the best witness, its value, and
    each rung's list of new candidates."""
    radius = 3.0 / math.sqrt(2.0) * bmats[0].shape[0] * 1.0001
    seen = {best}
    news = []
    for q in qs:
        cands = recursive_fincke_pohst(q, radius * best_val, height, seen)
        news.append(cands)
        if cands:
            vals = dy._value_array(bmats, [1, 1], cands)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best = float(vals[i]), cands[i]
    return best, best_val, news


def by_index(ids, pts, count):
    """Split (stack index, vector) arrays into one list of tuples per
    index."""
    return [[tuple(int(c) for c in p) for p in pts[ids == r]]
            for r in range(count)]


def fincke_pohst(d, lmat, bound, height, group, seen, side):
    """The enumeration over every row of a factored stack, its chunks
    joined into one stack index and one vector array."""
    out = list(dy._fincke_pohst(d, lmat, np.arange(len(d)), bound, height,
                                group, seen, side))
    return (np.concatenate([np.zeros(0, dtype=int)] + [i for i, _ in out]),
            np.concatenate([np.zeros((0, d.shape[1]), dtype=int)]
                           + [p for _, p in out]))


# mantissa times a power of two: entries from about 2^-203 to 2^150
wide = hs.builds(math.ldexp, hs.integers(-2 ** 53, 2 ** 53),
                 hs.integers(-203, 97))
small = hs.floats(-4, 4, allow_subnormal=False)


@hs.composite
def symmetric_floats(draw, dim=None):
    """Symmetric float matrices up to 6 x 6: arbitrary (mostly indefinite)
    wide-range ones, Gram matrices, Gram matrices made near-singular by an
    almost repeated row, and ladder rungs s^2 G1 + G2 / s^2 with s^2 up to
    2^+-150, as the ellipsoid search forms them."""
    dim = dim or draw(hs.integers(1, 6))
    kind = draw(hs.sampled_from(["symmetric", "gram", "near-singular",
                                 "ladder"]))
    if kind == "symmetric":
        low = [[draw(wide) for _ in range(i + 1)] for i in range(dim)]
        return np.array([[low[max(i, j)][min(i, j)] for j in range(dim)]
                         for i in range(dim)])
    b = np.array([[draw(small) for _ in range(dim)] for _ in range(dim)])
    if kind == "near-singular":
        b[-1] = b[0] + math.ldexp(1.0, -draw(hs.integers(20, 60))) * b[-1]
    g = b.T @ b
    if kind == "ladder":
        b2 = np.array([[draw(small) for _ in range(dim)] for _ in range(dim)])
        s2 = math.ldexp(1.0, draw(hs.integers(-150, 150)))
        g = g * s2 + (b2.T @ b2) / s2
    return g


@hs.composite
def symmetric_stacks(draw):
    """One to five symmetric_floats matrices of one size, stacked."""
    dim = draw(hs.integers(1, 6))
    return np.array(draw(hs.lists(symmetric_floats(dim), min_size=1,
                                  max_size=5)))


@settings(max_examples=400, deadline=None)
@given(symmetric_stacks())
def test_shifted_ldl_is_batch_independent_and_backward_stable(qs):
    # bit for bit the same d and L floats however the stack is split, a
    # matrix the exact factor finds positive definite is kept, and every
    # kept factor meets the backward-error bound in rationals
    dim = qs.shape[1]
    assert ldl_shift(dim) == 1 + 2 * dim * (float(gamma(dim + 2))
                                            + float(gamma(dim + 1)))
    d, lmat = dy._ldl(qs.copy())
    for cuts in ([1], range(1, len(qs)), range(2, len(qs), 2)):
        parts = [dy._ldl(part.copy()) for part in np.split(qs, cuts)]
        assert np.concatenate([p[0] for p in parts]).tobytes() == d.tobytes()
        assert np.concatenate([p[1] for p in parts]).tobytes() \
            == lmat.tobytes()
    kept = np.flatnonzero((d > 0).all(axis=1))
    assert set(bareiss_ldl(qs)[0].tolist()) <= set(kept.tolist())
    assert (np.triu(lmat) == np.triu(qs)).all()
    for r in kept:
        assert backward_error_holds(qs[r], d[r], lmat[r])


# A rung of acceptance 8's sl3-borel TT path (step 21, rung 149) whose
# float Gram the exact factor finds indefinite: in its diagonal scaling the
# least eigenvalue is -5.6e-16, against the shift of 2.0e-14.
BOREL_TT_RUNG = [
    ["0x1.0000000000000p+144"],
    ["-0x1.6a09e667f3bcdp+144", "0x1.0000000000001p+145"],
    ["0x1.0000000000000p+144", "-0x1.6a09e667f3bcdp+144",
     "0x1.0000000000000p+144"],
    ["-0x1.6a09e667f3bcdp+144", "0x1.0000000000001p+145",
     "-0x1.6a09e667f3bcdp+144", "0x1.0000000000001p+145"],
    ["0x1.0000000000000p+144", "-0x1.6a09e667f3bcdp+144",
     "0x1.0000000000000p+144", "-0x1.6a09e667f3bcdp+144",
     "0x1.0000000004000p+144"],
    ["-0x1.6a09e667f3bcdp+144", "0x1.0000000000001p+145",
     "-0x1.6a09e667f3bcdp+144", "0x1.0000000000001p+145",
     "-0x1.6a09e667ee14bp+144", "0x1.0000000004001p+145"]]


def test_shifted_ldl_factors_a_rung_the_exact_factor_rejects():
    # the exact factor decided the positivity of the rounded Gram, not of
    # the form, and lost the rung; the shifted factor keeps it, and still
    # leaves out a zero matrix and an indefinite one
    q = np.array([[float.fromhex(BOREL_TT_RUNG[max(i, j)][min(i, j)])
                   for j in range(6)] for i in range(6)])
    assert len(bareiss_ldl(q[None])[0]) == 0
    d, lmat = dy._ldl(q[None].copy())
    assert (d > 0).all() and backward_error_holds(q, d[0], lmat[0])
    for dropped in ([[0.0]], [[1.0, 2.0], [2.0, 1.0]]):
        assert np.isnan(dy._ldl(np.array([dropped]))[0]).all()


@hs.composite
def ladder_grams(draw):
    """A rung's Gram s^2 B1^T B1 + B2^T B2 / s^2 as the ellipsoid search
    forms it, with B1 and B2 of 1 to 3 rows and twice as many columns,
    [B1; B2] invertible and on some draws near-singular (a row almost
    repeated), and s^2 any float from 2^-150 to 2^150."""
    rows = draw(hs.integers(1, 3))
    entry = small.filter(lambda x: x == 0 or abs(x) >= 2.0 ** -20)
    b = np.array([[draw(entry) for _ in range(2 * rows)]
                  for _ in range(2 * rows)])
    if draw(hs.booleans()):
        b[-1] = b[0] + math.ldexp(1.0, -draw(hs.integers(20, 60))) * b[-1]
    assume(determinant([[Fraction(x) for x in row] for row in b], 0) != 0)
    s2 = math.ldexp(draw(hs.floats(1, 2, exclude_max=True)),
                    draw(hs.integers(-150, 149)))
    g1, g2 = (sum(np.multiply.outer(row, row) for row in half)
              for half in (b[:rows], b[rows:]))
    return g1 * s2 + g2 / s2


@settings(max_examples=300, deadline=None)
@given(ladder_grams())
def test_every_ladder_rung_factors(q):
    # the form is positive definite, so the shifted factor of its rounded
    # Gram completes: no rung is dropped
    d, lmat = dy._ldl(q[None].copy())
    assert (d > 0).all() and backward_error_holds(q, d[0], lmat[0])


def subnormal_pivot_gram():
    """The Gram of a 4 x 4 basis with an entry of 6.27e-156, as hypothesis
    once drew it: its LDL has the subnormal pivot d_2 = 3.93e-311 (too
    small to take the shift) and L_32 = 1.60e155, so below x_3 = 1 the
    centre is about -1.6e155, rem / d_2 overflows and (x_2 - c)^2, about
    2.5e310, is not finite while d_2 (x_2 - c)^2 is about 1."""
    b = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 6.27e-156, 1.0],
                  [0, 0, 0, 1.0]])
    return b.T @ b


@hs.composite
def fincke_pohst_inputs(draw):
    """A stack of one to three Gram matrices (2 x 2 to 6 x 6, made definite
    or not by a drawn multiple of the identity) in groups 0 and 1, a bound
    per matrix, a height of 1 to 3 and one seed per group."""
    dim, height = draw(hs.integers(2, 6)), draw(hs.integers(1, 3))

    def matrix():
        b = np.array([[draw(small) for _ in range(dim)] for _ in range(dim)])
        return b.T @ b + np.eye(dim) * draw(hs.floats(0, 1))

    qs = np.array([matrix() for _ in range(draw(hs.integers(1, 3)))])
    group = np.array([draw(hs.integers(0, 1)) for _ in qs])
    bound = np.array([draw(hs.floats(0, 40)) for _ in qs])
    seeds = [tuple(draw(hs.integers(-height, height)) for _ in range(dim))
             for _ in range(2)]
    return qs, group, bound, height, seeds


@settings(max_examples=150, deadline=None)
@given(fincke_pohst_inputs())
# the draw whose (x_2 - c)^2 overflowed the recursion's float: below
# x_3 = 1 about 0.5 is left, and the true term is about 1.0
@example((subnormal_pivot_gram()[None], np.array([0]), np.array([1.5]), 1,
          [(0, 0, 1, 0), (1, 0, 0, 0)]))
def test_vectorised_fincke_pohst_matches_recursion(inp):
    # the same new vectors in the same order as the recursion run matrix
    # after matrix, with one seen set per group, at any row cap
    qs, group, bound, height, seeds = inp
    d, lmat = dy._ldl(qs.copy())
    want_seen = [{seed} for seed in seeds]
    want = [recursive_fincke_pohst(q, float(b), height, want_seen[g])
            for q, b, g in zip(qs, bound, group)]
    seen = dy._group_keys(np.arange(2), np.array(seeds), height)
    for cap in (dy.FP_ROWS, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dy, "FP_ROWS", cap)
            got = fincke_pohst(d, lmat, bound, height, group, seen, height)
        assert by_index(*got, len(qs)) == want


def test_fincke_pohst_keeps_a_term_whose_square_overflows():
    # below x_3 = 1, d_2 (x_2 - c)^2 is about 1 and 2 is left, so the box's
    # x_1 and x_0 stay in range; squaring first gives inf, which leaves only
    # the centres x_1 = x_0 = 0 there and loses 12 of the 28 vectors
    q = subnormal_pivot_gram()
    d, lmat = dy._ldl(q[None].copy())
    assert d[0, 2] == pytest.approx(3.93e-311, rel=1e-2)
    assert lmat[0, 3, 2] == pytest.approx(1.6e155, rel=1e-2)
    with np.errstate(over="ignore"):
        assert np.float_power(lmat[0, 3, 2] - 1, 2.0) == math.inf
    got = by_index(*fincke_pohst(d, lmat, np.array([3.0]), 1, np.zeros(1, int),
                                 np.zeros(0, dtype=np.int64), 1), 1)[0]
    # the exact set over the box, highest nonzero coordinate positive
    qf = [[Fraction(x) for x in row] for row in q]
    pad = Fraction(3.0 * (1 + 1e-9) + 1e-12)
    exact = [x for x in itertools.product((-1, 0, 1), repeat=4)
             if any(x) and next(c for c in reversed(x) if c) > 0
             and sum(qf[i][j] * x[i] * x[j] for i in range(4)
                     for j in range(4)) <= pad]
    assert len(exact) == 28
    assert {(0, 1, -1, 1), (1, 0, 0, 1), (-1, 0, 1, 1)} <= set(exact)
    assert sorted(got) == sorted(exact)
    assert got == recursive_fincke_pohst(q, 3.0, 1, set())


def test_float_power_squares_as_python_does():
    # the enumeration squares with np.float_power because it is the pow
    # Python's ** calls, bit for bit; numpy's ** on arrays need not be
    x = np.random.default_rng(5).uniform(-50, 50, 20000)
    assert np.float_power(x, 2.0).tobytes() == \
        np.array([v ** 2 for v in x.tolist()]).tobytes()


def test_fincke_pohst_pivot_below_bound_over_max_float():
    # bound / d overflows to inf: every box vector is in range, and no
    # float infinity reaches ceil or floor
    q = np.eye(2) * 2.0 ** -1022
    d, lmat = dy._ldl(q[None].copy())
    got = by_index(*fincke_pohst(d, lmat, np.array([4.0]), 1, np.zeros(1, int),
                                 np.zeros(0, dtype=np.int64), 1), 1)[0]
    assert sorted(got) == [(-1, 1), (0, 1), (1, 0), (1, 1)]
    assert got == recursive_fincke_pohst(q, 4.0, 1, set())


def test_fincke_pohst_prunes_a_negative_bound_left():
    # at bound 1.5, below x_3 = 1 about 0.5 is left and the x_2 term is
    # about 1.0: the row goes, where a bound left clamped to 0 kept the
    # centre x_1 = x_0 = 0 and emitted (0, 0, x_2, 1), outside the ellipsoid
    q = subnormal_pivot_gram()
    d, lmat = dy._ldl(q[None].copy())
    got = by_index(*fincke_pohst(d, lmat, np.array([1.5]), 1, np.zeros(1, int),
                                 np.zeros(0, dtype=np.int64), 1), 1)[0]
    assert not {(0, 0, x, 1) for x in (-1, 0, 1)} & set(got)
    qf = [[Fraction(x) for x in row] for row in q]
    pad = Fraction(1.5 * (1 + 1e-9) + 1e-12)
    assert all(sum(qf[i][j] * x[i] * x[j] for i in range(4) for j in range(4))
               <= pad for x in got)
    assert got == recursive_fincke_pohst(q, 1.5, 1, set())


@hs.composite
def ladder_inputs(draw, dim, rows, height):
    """Image matrices at two real places (rows x dim) and 1-12 rungs
    s^2 = s0 2^(k/2); the seed is the box's direct-scan minimum at height 1,
    or an arbitrary nonzero point, which later rungs usually beat."""
    bmats = [np.array([[draw(small) for _ in range(dim)]
                       for _ in range(rows)]) for _ in range(2)]
    s2, rungs = math.ldexp(1.0, draw(hs.integers(-8, 4))), []
    for _ in range(draw(hs.integers(1, 12))):
        rungs.append(s2)
        s2 *= math.sqrt(2.0)
    s2 = np.array(rungs).reshape(-1, 1, 1)
    g1, g2 = (sum(np.multiply.outer(row, row) for row in b) for b in bmats)
    if draw(hs.booleans()):
        best_val, best = dy._direct_scan(bmats, [1, 1], 1, dim)
    else:
        best = tuple(draw(hs.integers(-height, height)) for _ in range(dim))
        if not any(best):
            best = (1,) + best[1:]
        best_val = float(dy._value_array(bmats, [1, 1], [best])[0])
    return bmats, g1 * s2 + g2 / s2, best, best_val


@hs.composite
def shared_ladders(draw):
    """One to three ladder_inputs of one shape (1-3 rows, 2-6 columns) and
    a height whose box the recursion can walk."""
    dim, rows = draw(hs.integers(2, 6)), draw(hs.integers(1, 3))
    height = draw(hs.integers(1, max(h for h in (1, 2, 3)
                                     if (2 * h + 1) ** dim <= 3200)))
    ladders = draw(hs.lists(ladder_inputs(dim, rows, height), min_size=1,
                            max_size=3))
    return ladders, height


@settings(max_examples=80, deadline=None)
@given(shared_ladders(), hs.integers(1, 6))
def test_ladder_matches_sequential_oracle(inp, window):
    # through one shared walk, each ladder's witness, its value bit for bit
    # and every rung's new candidates, whichever rungs beat the running
    # best, whatever the first window and the row cap
    ladders, height = inp
    want = [sequential_ladder(*ladder, height) for ladder in ladders]
    bmats, qs = [b for b, *_ in ladders], [q for _, q, *_ in ladders]
    sizes = [len(q) for q in qs]
    group, start = np.repeat(np.arange(len(qs)), sizes), np.cumsum(sizes)
    start -= sizes
    for cap in (dy.FP_ROWS, 2):
        best, vals = [lad[2] for lad in ladders], [lad[3] for lad in ladders]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dy, "FP_ROWS", cap)
            mp.setattr(dy, "FIRST_WINDOW", window)
            news = list(dy._ladder(bmats, np.concatenate(qs), group, best,
                                   vals, height))
        for k, (wbest, wval, wnews) in enumerate(want):
            assert best[k] == wbest
            assert vals[k].hex() == wval.hex()
            mine = [(ids - start[k], pts)
                    for step, ids, pts in news if step == k]
            ids = np.concatenate([np.zeros(0, dtype=int)]
                                 + [ids for ids, _ in mine])
            pts = np.concatenate([np.zeros((0, qs[k].shape[1]), dtype=int)]
                                 + [pts for _, pts in mine])
            assert by_index(ids, pts, len(qs[k])) == wnews


def sqrt2_ladder(lo, hi):
    """The ladder the doubling one replaced: s^2 from lo up to hi in steps
    of a float sqrt(2)."""
    rungs, s2 = [], lo
    while s2 <= hi:
        rungs.append(s2)
        s2 *= math.sqrt(2.0)
    return rungs


@settings(max_examples=300, deadline=None)
@given(hs.floats(1e-30, 1e30), hs.floats(2.0 ** -60, 2.0 ** 60))
def test_rungs_cover_the_sqrt2_ladder(lo, ratio):
    # the balance points the doubling ladder covers, [r_0 / sqrt 2,
    # r_last sqrt 2], contain those of the sqrt(2) ladder over the same
    # ends, [lo 2^-1/4, r_last,old 2^1/4] (checked on fourth powers, in
    # rationals), with one rung more than half as many, and one more only
    # when the sqrt(2) ladder's next rung falls inside the pad above hi
    hi = lo * ratio
    new, old = dy._rungs(lo, hi), sqrt2_ladder(lo, hi)
    assert bool(new) == bool(old)
    if not old:
        return
    assert new[0] == lo
    assert all(b == 2 * a for a, b in zip(new, new[1:]))
    assert 2 * Fraction(new[-1]) ** 4 >= Fraction(old[-1]) ** 4
    assert len(new) <= len(old) // 2 + 1 + \
        (old[-1] * math.sqrt(2.0) <= hi * (1 + 1e-9))


@settings(max_examples=300, deadline=None)
@given(hs.integers(1, 3), hs.integers(2, 6), hs.data())
def test_nearest_rung_holds_the_point(rows, dim, data):
    # a point whose balance point |B2 x| / |B1 x| lies in the range the
    # rungs cover satisfies x^T q x <= radius n p(x) at the nearest rung,
    # q formed as the ellipsoid scan forms it and x^T q x in rationals
    assert dy.LADDER_RADIUS == pytest.approx(
        math.sqrt(dy.RUNG_RATIO) + 1 / math.sqrt(dy.RUNG_RATIO), rel=1e-15)
    assert dy.LADDER_RADIUS == 3.0 / math.sqrt(2.0)
    bmats = [np.array([[data.draw(small) for _ in range(dim)]
                       for _ in range(rows)]) for _ in range(2)]
    x = [data.draw(hs.integers(-5, 5)) for _ in range(dim)]
    sup = [max(abs(sum(Fraction(v) * c for v, c in zip(row, x)))
               for row in b) for b in bmats]
    if not all(sup):
        return
    balance = sup[1] / sup[0]
    # lo from 2^-9 to 1 times the balance point, hi up to 2^16 lo
    lo = float(balance) * math.ldexp(data.draw(hs.floats(0.5, 1.0)),
                                     -data.draw(hs.integers(0, 8)))
    hi = lo * math.ldexp(1.0, data.draw(hs.integers(0, 16)))
    if not (lo > 0 and hi < math.inf):
        # the float ends underflow or overflow at extreme balance points
        with pytest.raises(PrecisionExhausted):
            dy._rungs(lo, hi)
        return
    rungs = dy._rungs(lo, hi)
    if not Fraction(rungs[0]) ** 2 <= 2 * balance ** 2 \
            <= 4 * Fraction(rungs[-1]) ** 2:
        return
    # nearest on a log scale: the least t + 1/t, t = s^2 / balance
    k = min(range(len(rungs)), key=lambda k: Fraction(rungs[k]) / balance
            + balance / Fraction(rungs[k]))
    g1, g2 = (sum(np.multiply.outer(row, row) for row in b) for b in bmats)
    q = g1 * rungs[k] + g2 / rungs[k]
    if not np.isfinite(q).all():
        with pytest.raises(OverflowError):
            dy._ldl(q[None])
        return
    form = sum(Fraction(q[i, j]) * x[i] * x[j]
               for i in range(dim) for j in range(dim))
    radius = Fraction(dy.LADDER_RADIUS * rows * 1.0001)
    assert form <= radius * sup[0] * sup[1]


def test_rungs_refuse_ends_that_are_not_finite_and_positive():
    # lo = 0 or hi = inf would append 0.0 or inf forever
    for lo, hi in ((0.0, 0.0), (1.0, math.inf), (0.0, 1.0), (-1.0, 1.0),
                   (math.nan, 1.0), (math.inf, math.inf)):
        with pytest.raises(PrecisionExhausted):
            dy._rungs(lo, hi)


def sl3_paths(K, steps):
    """Acceptance 8's six SL3 configurations, their paths cut to a number
    of steps: (name, orbit input, path)."""
    from test_acceptance import full_ramp, ramp
    i3 = dc.MatrixK.identity(K, 3)
    h3 = dc.unipotent_matrix(K, 3, {(2, 0): K.one, (2, 1): K.theta})
    h3t = rd.longest_element(3).matrix(K) * \
        dc.unipotent_matrix(K, 3, {(0, 1): K.one})
    h3g = dc.MatrixK.from_rational_rows(
        K, [[Fraction(1, 2)] * 3, [1, 2, 4], [1, 3, 9]])
    return [(name, st.OrbitInput((g, i3)), path) for name, g, path in (
        ("sl3-psi TT", h3, ramp(3, steps, 1, 1, -1)),
        ("sl3-psi TF", h3, ramp(3, steps, 1, 2, -1)),
        ("sl3-psi FT", h3t, ramp(3, steps, 1, 1, -1)),
        ("sl3-psi FF", h3t, ramp(3, steps, 1, 2, -1)),
        ("sl3-borel TT", h3g, full_ramp(3, steps, 1, -1)),
        ("sl3-borel FF", h3t, full_ramp(3, steps, 2, -1)))]


def test_run_path_shares_the_search_without_moving_a_step(Ksqrt2):
    # height 7 is the least whose box (15^6 points) takes the ellipsoid
    # search: the path's steps walk their ladders in shared passes, and
    # every value, enclosure and witness is the one-step search's
    for name, inp, path in sl3_paths(Ksqrt2, 8):
        trace = dy.run_path(inp, path, 7)
        for k, step in enumerate(trace.steps):
            enc, wit = dy.systole(inp, path.realize(k), 7)
            assert (step.value, step.enclosure, step.witness) == \
                (float(enc.mid), (float(enc.lo), float(enc.hi)), wit), name


# tracemalloc peak of run_path on sl3-borel FF at height 20 before the
# shared search (three runs after a warm-up step: 0.577-0.597 MiB)
STEP_BY_STEP_PEAK_MIB = 0.60


def test_shared_search_memory_on_the_borel_ff_path(Ksqrt2):
    # every step's candidates of a pass are evaluated chunk by chunk, not
    # held: the shared search peaks at most 1 MiB above the step-by-step one
    name, inp, path = sl3_paths(Ksqrt2, 30)[-1]
    assert name == "sl3-borel FF"
    dy.systole(inp, path.realize(0), 20)        # caches of the field
    tracemalloc.start()
    try:
        dy.run_path(inp, path, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (STEP_BY_STEP_PEAK_MIB + 1) * 2 ** 20


def test_no_rung_is_skipped_on_the_acceptance_paths(Ksqrt2, monkeypatch):
    # the exact factor of the float Grams left out 3,963 of these 12,072
    # rungs (3,911 on sl3-borel TT); the shifted float factor keeps all
    counts, factor = [], dy._ldl

    def counted(qs):
        out = factor(qs)
        counts.append((len(qs), np.count_nonzero((out[0] > 0).all(axis=1))))
        return out

    monkeypatch.setattr(dy, "_ldl", counted)
    for name, inp, path in sl3_paths(Ksqrt2, 30):
        dy.run_path(inp, path, 20)
    assert sum(total for total, _ in counts) == 12072
    assert all(total == kept for total, kept in counts)


# tracemalloc peak of run_path on sl3-psi TT at height 20 while the exact
# factor held every rung's factors twice at its end: 2.21 MiB
FACTOR_PEAK_MIB = 1.9


def test_factors_held_once_on_the_psi_tt_path(Ksqrt2):
    # the factor fills the rung stack in place: d and L are held once
    name, inp, path = sl3_paths(Ksqrt2, 30)[0]
    assert name == "sl3-psi TT"
    dy.systole(inp, path.realize(0), 20)        # caches of the field
    tracemalloc.start()
    try:
        dy.run_path(inp, path, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FACTOR_PEAK_MIB * 2 ** 20


def test_run_path_constant(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((i2, i2))
    path = constant_path(2, 2, 5)
    tr = dy.run_path(inp, path, 3)
    vals = [s.value for s in tr.steps]
    assert max(vals) - min(vals) < 1e-12
    assert tr.verdict == "bounded-below"


def test_run_path_divergent(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((i2, i2))
    path = dy.TorusPath(2, (Fraction(2), Fraction(2)),
                        (tuple((k,) for k in range(14)),
                         tuple((0,) for _ in range(14))))
    tr = dy.run_path(inp, path, 4)
    assert tr.verdict == "decaying"
    vals = [s.value for s in tr.steps]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_run_path_inconclusive_between_the_thresholds(Ksqrt2):
    # the systole at step k is 2^-k (e2 shrinks by 2^k at the first place,
    # nothing moves at the second), so eight steps end at 2^-7, below the
    # bounded threshold 1e-2 and above the decay threshold 1e-3
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    path = dy.TorusPath(2, (Fraction(2), Fraction(2)),
                        (tuple((k,) for k in range(8)),
                         tuple((0,) for _ in range(8))))
    tr = dy.run_path(st.OrbitInput((i2, i2)), path, 4)
    assert [s.value for s in tr.steps] == [2.0 ** -k for k in range(8)]
    assert tr.verdict == "inconclusive"


def test_decaying_reads_the_upper_end_of_the_last_enclosure(Ksqrt2,
                                                             monkeypatch):
    # a last enclosure straddling DECAY_THRESHOLD with its midpoint below
    # it proves no decay; one whose upper end reaches it does
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp, path = st.OrbitInput((i2, i2)), constant_path(2, 2, 2)
    first = RInt(Fraction(1, 200), Fraction(1, 100))
    for last, verdict in ((RInt(Fraction(1, 2000), Fraction(6, 5000)),
                           "inconclusive"),
                          (RInt(Fraction(1, 2000), Fraction(1, 1000)),
                           "decaying")):
        monkeypatch.setattr(dy, "_systoles", lambda *_: [
            (first, (1, 0, 0, 0)), (last, (1, 0, 0, 0))])
        trace = dy.run_path(inp, path, 1)
        assert trace.final_value < dy.DECAY_THRESHOLD
        assert trace.verdict == verdict


# -- boundedness criterion ---------------------------------------------------------


def bounded_input(K):
    return dc.unipotent_matrix(K, 2, {(1, 0): K.one}) * \
        dc.diagonal_matrix(K, [K.element([2]), K.element([Fraction(1, 2)])])


def test_check_boundedness_tt(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    rep = dy.check_boundedness(bounded_input(Ksqrt2), i2,
                               rd.RootSubset.empty(2),
                               ramp_path(2, 10), C=Fraction(4), height=8)
    assert rep.membership and rep.products_bounded
    assert rep.trace.verdict == "bounded-below"
    assert rep.agrees


def test_check_boundedness_tf(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    rep = dy.check_boundedness(bounded_input(Ksqrt2), i2,
                               rd.RootSubset.empty(2),
                               ramp_path(2, 12, s_rate=2), C=Fraction(4),
                               height=8)
    assert rep.membership and not rep.products_bounded
    assert rep.trace.verdict == "decaying"
    assert rep.agrees


def test_check_boundedness_ft(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    h_tw = dc.MatrixK.from_rational_rows(Ksqrt2, [[0, 1], [-1, -1]])
    rep = dy.check_boundedness(h_tw, i2, rd.RootSubset.empty(2),
                               ramp_path(2, 10), C=Fraction(4), height=8)
    assert not rep.membership and rep.products_bounded
    assert rep.trace.verdict == "decaying"
    assert rep.agrees


def test_check_boundedness_hypothesis_guard(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    bad = dy.TorusPath(2, (Fraction(2), Fraction(2)),
                       (tuple((-k,) for k in range(6)),
                        tuple((-k,) for k in range(6))))
    with pytest.raises(HypothesisViolated):
        dy.check_boundedness(bounded_input(Ksqrt2), i2,
                             rd.RootSubset.empty(2), bad, C=Fraction(4))


# -- limit prediction ----------------------------------------------------------------


def test_predicted_limit_top(Ksqrt2):
    g1 = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]])
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((g1, i2))
    e = rd.identity_weyl(2)
    rep = dy.predicted_limit(inp, rd.RootSubset.full(2), e, e)
    assert rep == (g1, i2)


def test_predicted_limit_borel(Ksqrt2):
    g1 = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]])
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((g1, i2))
    e = rd.identity_weyl(2)
    dec = dc.block_ldu(g1, rd.RootSubset.empty(2))
    rep = dy.predicted_limit(inp, rd.RootSubset.empty(2), e, e)
    assert rep[0] == dec.v_minus.inverse() * g1
    assert rep[1] == dec.v_plus


def test_predicted_limit_membership_guard(Ksqrt2):
    uni = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]])
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((uni, i2))
    s = rd.all_weyl(2)[1]
    e = rd.identity_weyl(2)
    with pytest.raises(MembershipFails):
        dy.predicted_limit(inp, rd.RootSubset.empty(2), s, e)


def test_path_realization_exact(Ksqrt2):
    path = ramp_path(3, 5)
    for k in range(5):
        for v in range(2):
            diag = path.realize(k)[v]
            prod = Fraction(1)
            for x in diag:
                prod *= x
            assert prod == 1
            roots = path.root_values(v, k)
            for i, m in enumerate(path.schedules[v][k]):
                assert roots[i] == Fraction(2) ** (3 * m)
