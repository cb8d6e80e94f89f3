import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusorbits import config as cfg
from torusorbits import dynamics as dy
from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import polyutil as pu
from torusorbits import rootdata as rd
from torusorbits import strata as st
from torusorbits.decomp import (BlockLDU, MatrixK, MinorTable,
                                diagonal_matrix, unipotent_matrix)
from torusorbits.errors import InvariantViolation

from gauss_oracle import determinant, echelon, invert, solve


@pytest.fixture(scope="session")
def Ksqrt2():
    return nf.create_field([-2, 0, 1], declared_units=[[1, 1]], label="q-sqrt2")


@pytest.fixture(scope="session")
def Kcubic():
    # totally real cyclic cubic; theta and theta^2 - 2 are units
    return nf.create_field([-1, -3, 0, 1],
                           declared_units=[[0, 1, 0], [-2, 0, 1]],
                           label="cyclic-cubic")


@pytest.fixture(scope="session")
def Kgauss():
    return nf.create_field([1, 0, 1], label="q-i")


@pytest.fixture(scope="session")
def Kquartic():
    # x^4 - 2x^3 + x^2 - 2x + 1: two real embeddings, one conjugate pair;
    # units: theta (unit circle at the complex place) and theta + 1/theta
    return nf.create_field([1, -2, 1, -2, 1],
                           declared_units=[[0, 1, 0, 0], [2, 0, 2, -1]],
                           label="circle-quartic")


@pytest.fixture(scope="session")
def Kzeta8():
    # x^4 + 1 with the presentation K = F(sqrt(-1)), F = Q(sqrt 2)
    return nf.create_field(
        [1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]], label="q-zeta8",
        cm_structure=dict(subfield_poly=[-2, 0, 1], subfield_gen=[0, 1, 0, -1],
                          d=[1, 0, 0, 0], relative_gen=[0, 0, 1, 0]))


@pytest.fixture(scope="session")
def Kzeta16():
    # x^8 + 1, totally imaginary; the cyclotomic units (1 - z^a) / (1 - z)
    # for a = 3, 5, 7 are independent
    return nf.create_field([1, 0, 0, 0, 0, 0, 0, 0, 1],
                           declared_units=[[1] * 3, [1] * 5, [1] * 7],
                           label="q-zeta16")


def weyl_untranslate(w1, x, w2):
    """w1^{-1} x w2 for the det-one monomial representatives, as matrix
    products; a representative's inverse is its transpose."""
    m1, m2 = w1.matrix(x.field), w2.matrix(x.field)
    return MatrixK(x.field, list(zip(*m1.rows))) * x * m2


def weyl_translate(w1, x, w2):
    """w1 x w2^{-1} for the det-one monomial representatives, as matrix
    products."""
    m1, m2 = w1.matrix(x.field), w2.matrix(x.field)
    return m1 * x * MatrixK(x.field, list(zip(*m2.rows)))


def random_element(K, rng, span=4, denom=3):
    return K.element([Fraction(rng.randint(-span, span),
                               rng.randint(1, denom))
                      for _ in range(K.degree)])


def random_sl(K, n, rng, steps=4):
    """Random SL_n(K) matrix as a product of elementary and monomial pieces."""
    from torusorbits.rootdata import all_weyl
    m = MatrixK.identity(K, n)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            m = m * unipotent_matrix(K, n, {(i, j): random_element(K, rng, 3, 2)})
        elif kind == 1:
            w = rng.choice(all_weyl(n))
            m = m * w.matrix(K)
        else:
            x = K.element([1, 1]) if K.degree == 2 else K.theta
            e = rng.randint(-2, 2)
            diag = [x ** e] + [K.one] * (n - 2) + [x ** (-e)]
            m = m * diagonal_matrix(K, diag)
    return m


def generic_sl(K, n, rng):
    """A generic SL_n(K) matrix with high probability: a lower times an upper
    unipotent factor with random nonzero entries off the diagonal, times a
    diagonal one of determinant one."""
    def nonzero():
        while True:
            x = random_element(K, rng, 3, 2)
            if x:
                return x

    low = unipotent_matrix(K, n, {(i, j): nonzero()
                                  for i in range(n) for j in range(i)})
    up = unipotent_matrix(K, n, {(j, i): nonzero()
                                 for i in range(n) for j in range(i)})
    diag = [nonzero() for _ in range(n - 1)]
    last = K.one
    for x in diag:
        last = last / x
    return low * up * diagonal_matrix(K, diag + [last])


def cubic_density_form(K):
    """Acceptance 9's non-rational binary form over the cyclic cubic."""
    half = K.from_rational(Fraction(1, 2))
    return fm.make_form(K, [
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
    ], scalars=[half] * 3)


CUBIC_WINDOW = ((-5.0, 5.0),) * 3

# x^3 - 3 10^38 x^2 - 9 x - 8 10^38 (low to high): one real root and a
# complex pair whose approximations mpmath.polyroots does not converge on
NONCONVERGENT_CUBIC = [-8 * 10 ** 38, -9, -3 * 10 ** 38, 1]


def window_scan_digest(scan, window, eps=0.25):
    """Shape, sha256 of the point array and of the degenerate mask, and the
    density counts of a window scan, as JSON data."""
    rep = fm.density_report(scan, window=window, eps=eps)
    return {"shape": list(scan.points.shape),
            "points_sha256": hashlib.sha256(scan.points.tobytes()).hexdigest(),
            "degenerate_sha256":
                hashlib.sha256(scan.degenerate.tobytes()).hexdigest(),
            "cells_hit": rep.cells_hit,
            "points_in_window": rep.points_in_window}


# -- oracles for the field arithmetic -------------------------------------------
#
# The algorithms the multiplication-matrix route replaced in the package,
# kept here to check it: the extended Euclidean inverse modulo the minimal
# polynomial, and norms as Sylvester resultants.


def euclid_inverse(x):
    """Inverse of a nonzero element by extended Euclid on its coefficient
    polynomial against the minimal polynomial."""
    K = x.field
    r0, r1 = K.min_poly, pu.poly(x.coeffs)
    s0, s1 = pu.poly([0]), pu.poly([1])
    while not pu.is_zero(r1):
        q, r = pu.pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, pu.poly(a - b for a, b in itertools.zip_longest(
            s0, pu.pmul(q, s1), fillvalue=0))
    # the minimal polynomial is irreducible, so the gcd r0 is a constant
    _, rem = pu.pdivmod(pu.pscale(s0, 1 / r0[0]), K.min_poly)
    return K.element(rem)


def multipoly_value(poly, values):
    """The exact value of a MultiPoly at rational values, term by term."""
    return sum((c * math.prod(Fraction(v) ** k for v, k in zip(values, e))
                for e, c in poly.terms.items()), Fraction(0))


def resultant(f, g):
    """Sylvester-matrix resultant; res(f, g) = lc(f)^deg(g) * prod g(roots
    of f)."""
    n, m = pu.degree(f), pu.degree(g)
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    fr = list(reversed(f))
    gr = list(reversed(g))
    rows = [[Fraction(0)] * i + fr + [Fraction(0)] * (m - 1 - i)
            for i in range(m)]
    rows += [[Fraction(0)] * i + gr + [Fraction(0)] * (n - 1 - i)
             for i in range(n)]
    return determinant(rows, Fraction(0))


def resultant_norm(x):
    """N_{K/Q}(x) as the resultant of the minimal polynomial and the
    coefficient polynomial of x."""
    if x.is_zero():
        return Fraction(0)
    return resultant(x.field.min_poly, pu.poly(x.coeffs))


def resultant_norm_f(field, cm, x):
    """N_{F/Q}(x) of an x in the CM subfield F, as the resultant of the
    subfield polynomial and the F-coordinate polynomial of x."""
    coords = nf.subfield_coordinates(field, cm, x)
    if coords is None:
        raise ValueError("element is not in F")
    return resultant(cm.subfield_poly, pu.poly(coords))


# The characteristic polynomial and the determinant as they were computed
# before polyutil.laplace_minor: Faddeev-LeVerrier, and the cofactor
# expansion along the first row without a memo of minors.


def faddeev_leverrier(M):
    """Characteristic polynomial det(t I - M) of a square rational matrix,
    low to high, by Faddeev-LeVerrier: matrix products and traces."""
    d = len(M)
    coeffs = [Fraction(1)]  # leading
    A = [list(map(Fraction, row)) for row in M]
    for k in range(1, d + 1):
        c = -sum(A[i][i] for i in range(d)) / k
        coeffs.append(c)
        if k < d:
            for i in range(d):
                A[i][i] += c
            A = [[sum(M[i][t] * A[t][j] for t in range(d)) for j in range(d)]
                 for i in range(d)]
    return pu.poly(list(reversed(coeffs)))


def cofactor_recursion(rows):
    """Determinant by cofactor expansion along the first row, each minor
    recomputed wherever it occurs (O(n!))."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        term = rows[0][j] * cofactor_recursion([r[:j] + r[j + 1:]
                                                for r in rows[1:]])
        acc = term if acc is None else acc + term if j % 2 == 0 else acc - term
    return acc


# -- Fraction-coefficient oracle for the integer-vector element -----------------
#
# The element arithmetic as it was before elements held integer numerators:
# Fraction coordinates, the convolution reduced with a Fraction theta-power
# table built here from the minimal polynomial, and quotients by the Fraction
# elimination oracle on the multiplication matrix that this product gives.


def frac_theta_powers(K):
    """Fraction coordinates of theta^k for d <= k <= 2d - 2."""
    d = K.degree
    red = tuple(-c for c in K.min_poly[:-1])
    powers = {d: red}
    for k in range(d + 1, 2 * d - 1):
        prev = powers[k - 1]
        powers[k] = tuple(s + prev[-1] * r
                          for s, r in zip((Fraction(0),) + prev[:-1], red))
    return powers


def frac_mul(K, a, b):
    """Product of two Fraction coordinate tuples."""
    d = K.degree
    conv = [Fraction(0)] * (2 * d - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            conv[i + j] += ca * cb
    out = conv[:d]
    for k, red in frac_theta_powers(K).items():
        for i in range(d):
            out[i] += conv[k] * red[i]
    return tuple(out)


def frac_mult_matrix(K, a):
    """Column t holds the coordinates of a * theta^t."""
    d = K.degree
    cols = [frac_mul(K, a, tuple(Fraction(int(i == t)) for i in range(d)))
            for t in range(d)]
    return [list(row) for row in zip(*cols)]


def frac_solve(K, a, b):
    """The z with a * z = b, or None for a zero a."""
    if not any(a):
        return None
    return tuple(solve(frac_mult_matrix(K, a), list(b), Fraction(0)))


def frac_norm(K, a):
    return determinant(frac_mult_matrix(K, a), Fraction(0))


# -- elimination oracles for the minors table ----------------------------------
#
# The block LDU, Bruhat cell and genericity test as they were computed before
# decomp read them from one table of minors: block elimination with the
# pivot blocks inverted by the elimination oracle, n^2 echelon rank counts,
# and one elimination per Borel pair.


def elimination_block_ldu(h, subset):
    """The block LDU h = v^- z v^+ by eliminating below each pivot block,
    or None when a pivot block is singular."""
    n = h.n
    f = h.field
    blocks = subset.blocks
    a = [list(r) for r in h.rows]
    vminus = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    invs = []
    for blk in blocks:
        lo, hi = blk.start, blk.stop
        inv = invert([row[lo:hi] for row in a[lo:hi]], f.one, f.zero)
        if inv is None:
            return None
        invs.append(inv)
        for r in range(hi, n):
            coefs = [a[r][lo + t] for t in range(hi - lo)]
            mult = [f.dot(coefs, [inv[t][s] for t in range(hi - lo)])
                    for s in range(hi - lo)]
            if all(x.is_zero() for x in mult):
                continue
            for s in range(hi - lo):
                vminus[r][lo + s] = mult[s]
            for k in range(n):
                acc = a[r][k]
                for s in range(hi - lo):
                    acc = acc - mult[s] * a[lo + s][k]
                a[r][k] = acc
    # now a = z * v_plus with z block diagonal, v_plus unit block upper
    levi = [[f.zero] * n for _ in range(n)]
    vplus = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    for blk, inv in zip(blocks, invs):
        lo, hi = blk.start, blk.stop
        for i in range(lo, hi):
            for j in range(lo, hi):
                levi[i][j] = a[i][j]
        for j in range(hi, n):
            col = [a[lo + t][j] for t in range(hi - lo)]
            sol = [f.dot(inv[s], col) for s in range(hi - lo)]
            for s in range(hi - lo):
                vplus[lo + s][j] = sol[s]
    v_minus, z, v_plus = MatrixK(f, vminus), MatrixK(f, levi), MatrixK(f, vplus)
    if v_minus * (z * v_plus) != h:
        raise InvariantViolation("block LDU recomposition failed")
    return BlockLDU(v_minus, z, v_plus, subset)


def fieldelement_ldu(table, subset, w1, w2):
    """The block LDU of w1^{-1} h w2 on FieldElements, with the minors of
    table (of h): the element-by-element oracle of MinorTable.ldu.  Every
    ratio is a minor times the inverse of its divisor, and z v^+ and the
    check v^- (z v^+) == M are NumberField.dot products."""
    if not table.present(subset, w1, w2):
        return None
    act1, act2 = w1.set_action, w2.set_action
    n, f = table.n, table.field

    def entry(a, b, d, sign=1):
        (sa, ra), (sb, cb) = act1[a], act2[b]
        (sd, rd), (se, cd) = act1[d], act2[d]
        r = table.minor(ra, cb)
        if r and rd:
            r = r * table.minor(rd, cd).inverse()
        return r if sign * sa * sb * sd * se > 0 else -r

    vminus = [[f.one if i == j else f.zero for j in range(n)]
              for i in range(n)]
    vplus = [row[:] for row in vminus]
    levi, zv = ([[f.zero] * n for _ in range(n)] for _ in range(2))
    for blk in subset.blocks:
        s, e = blk.start, blk.stop
        head, lead = (1 << s) - 1, (1 << e) - 1
        for i in blk:
            for j in blk:
                levi[i][j] = zv[i][j] = entry(head | 1 << i, head | 1 << j,
                                              head)
            sign = (-1) ** (e - 1 - i)
            for j in range(e, n):
                swapped = lead ^ 1 << i | 1 << j
                vplus[i][j] = entry(lead, swapped, lead, sign)
                vminus[j][i] = entry(swapped, lead, lead, sign)
        for i in blk:
            for j in range(e, n):
                zv[i][j] = f.dot(levi[i][s:e], [vplus[t][j] for t in blk])
    target = weyl_untranslate(w1, table.h, w2).rows
    for blk in subset.blocks:
        for i in blk:
            left = vminus[i][:blk.start] + [f.one]
            if any(f.dot(left, [r[j] for r in zv[:blk.start]] + [zv[i][j]])
                   != target[i][j] for j in range(n)):
                raise InvariantViolation("block LDU recomposition failed")
    return BlockLDU(*(MatrixK(f, m) for m in (vminus, levi, vplus)), subset)


def fieldelement_strata(g1, g2):
    """enumerate_strata on the FieldElement oracle: (records as (pair
    order keys, representative, is_closed), pair_count).  Representatives
    are the MatrixK translates (w1 (z v^+) w2^{-1} g2, w2 v^+ w2^{-1} g2),
    merged by MatrixK equality."""
    n = g1.n
    table = MinorTable(g1 * g2.inverse())
    groups, count = {}, 0
    for subset in rd.all_subsets(n):
        reps = rd.coset_representatives(n, subset)
        for i1, w1 in enumerate(reps):
            for i2, w2 in enumerate(reps):
                dec = fieldelement_ldu(table, subset, w1, w2)
                if dec is None:
                    continue
                rep = (weyl_translate(w1, dec.levi * dec.v_plus, w2) * g2,
                       weyl_translate(w2, dec.v_plus, w2) * g2)
                groups.setdefault(rep, []).append(st.ParabolicPair(
                    rd.parabolic_descriptor(subset, w1, opposite=True),
                    rd.parabolic_descriptor(subset, w2), subset, (w1, w2),
                    (len(subset.simples), subset.mask, i1, i2)))
                count += 1
    records = sorted((st.StratumRecord(pairs, rep)
                      for rep, pairs in groups.items()),
                     key=lambda r: r.pairs[0].order_key)
    s = st.StrataSet(st.OrbitInput((g1, g2)), records, pair_count=count)
    st._mark_closed(s)
    return strata_summary(s)


def strata_summary(s):
    """(records as (pair order keys, representative, is_closed),
    pair_count) of a StrataSet."""
    return ([([p.order_key for p in rec.pairs], rec.representative,
              rec.is_closed) for rec in s.records], s.pair_count)


def all_pairs_poset(s):
    """The closure poset edges and the minimal pairs of a StrataSet by the
    all-pairs sweep: every pair mask against every other, with no use of
    the subsets.  Pair b sits strictly inside pair a when b & ~a == 0 and
    b != a; the edges are the transitive reduction of the record order."""
    recs = s.records
    pairs = s.all_pairs()
    owner = np.array([i for i, rec in enumerate(recs) for _ in rec.pairs],
                     dtype=np.int64)
    masks = np.array([p.mask for p in pairs], dtype=np.uint64)
    minimal = [p for p, a in zip(pairs, masks)
               if not np.any(((masks & ~a) == 0) & (masks != a))]
    succ = [0] * len(recs)
    for b, j in zip(masks, owner.tolist()):
        for i in set(owner[((masks & b) == b) & (masks != b)].tolist()):
            if i != j:
                succ[i] |= 1 << j
    edges = []
    for i, row in enumerate(succ):
        reached = 0
        for k in set_bits(row):
            reached |= succ[k]
        edges.extend((i, j) for j in set_bits(row & ~reached))
    return edges, minimal


def set_bits(x):
    """The indices of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def records_json(records, closed_only=False):
    """The records of the strata and closed JSON as the dicts and lists that
    json_text renders into the text the CLI streams."""
    return [{
        "index": i,
        "is_closed": rec.is_closed,
        "levi_rank_marker": rec.levi_rank_marker,
        "pairs": [{
            "subset": sorted(p.subset.simples),
            "w1": str(p.witnesses[0]),
            "w2": str(p.witnesses[1]),
            "first_positions": [list(x) for x in p.first.sorted_positions()],
            "second_positions": [list(x) for x in p.second.sorted_positions()],
        } for p in rec.pairs],
        "representative": [[cfg.elem_to_list(x) for x in row]
                           for comp in rec.representative for row in comp.rows],
    } for i, rec in enumerate(records) if rec.is_closed or not closed_only]


def echelon_bruhat_cell(h):
    """w from the ranks r(i, j) of the leading i x j submatrices: w maps
    column b to the first row index where r(i, b + 1) - r(i, b) = 1."""
    n = h.n
    r = [[len(echelon([row[:j] for row in h.rows[:i]], j)[1])
          for j in range(n + 1)] for i in range(n + 1)]
    perm = [next(i - 1 for i in range(1, n + 1) if r[i][b] - r[i][b - 1] == 1)
            for b in range(1, n + 1)]
    return rd.WeylElement(tuple(perm))


def genericity_check(h):
    """Whether h lies in every Borel-pair translate of the open cell: the
    translate by (w1, w2) needs det h[w1({0..k-1}), w2({0..k-1})] != 0 for
    every k, so every minor of h must be nonzero, checked smallest first.
    StrataSet.is_generic reads the same test from the pair set."""
    table = MinorTable(h)
    sets = sorted(range(1, 1 << h.n), key=int.bit_count)
    return all(table.minor(r, c) for r in sets for c in sets
               if r.bit_count() == c.bit_count())


def elimination_genericity(h):
    """Whether every Borel-pair translate w1^{-1} h w2 has an LDU."""
    empty = rd.RootSubset.empty(h.n)
    return all(elimination_block_ldu(weyl_untranslate(w1, h, w2), empty)
               is not None
               for w1 in rd.all_weyl(h.n) for w2 in rd.all_weyl(h.n))


# -- Weyl-group oracles --------------------------------------------------------
#
# The Weyl-group layer as rootdata computed it before coset representatives
# came from the one-line notation: composition of permutations, the Levi's
# Weyl group by an n!-scan, and cosets enumerated element by element.


def weyl_compose(w, u):
    """w after u: (w u)(i) = w(u(i))."""
    return rd.WeylElement(tuple(w.perm[u.perm[i]] for i in range(w.n)))


def weyl_stabilizer(subset):
    """The Weyl group of the Levi: permutations preserving each block."""
    blk = subset.block_of()
    return tuple(w for w in rd.all_weyl(subset.n)
                 if all(blk[w(i)] == blk[i] for i in range(subset.n)))


def brute_force_cosets(n, subset):
    """The first element, in lexicographic order, of each left coset
    w W_subset, each coset built in full."""
    stab = weyl_stabilizer(subset)
    seen, reps = set(), []
    for w in rd.all_weyl(n):
        key = frozenset(weyl_compose(w, u).perm for u in stab)
        if key not in seen:
            seen.add(key)
            reps.append(w)
    return tuple(reps)


def loop_unipotent_positions(subset, sign=+1):
    """Strictly block upper (sign +) or lower (sign -) positions, by a
    double loop over the block indices."""
    blk = subset.block_of()
    return frozenset((i, j) for i in range(subset.n) for j in range(subset.n)
                     if i != j and (sign > 0 and blk[i] < blk[j]
                                    or sign < 0 and blk[i] > blk[j]))


def monomial_entries(m):
    """(row, col, sign) triples of a signed monomial matrix."""
    return [(i, j, 1 if x == m.field.one else -1)
            for i, row in enumerate(m.rows) for j, x in enumerate(row) if x]


def constant_path(n, r, steps):
    """A torus path that stays at the identity: every exponent zero."""
    zero = tuple([tuple([0] * (n - 1))] * steps)
    return dy.TorusPath(n, tuple(Fraction(2) for _ in range(r)),
                        tuple(zero for _ in range(r)))


def dict_expansion(form, v):
    """The place-v product polynomial of a decomposable form as a dict
    monomial -> coefficient, multiplied out one factor at a time."""
    terms = {tuple([0] * form.n): form.scalars[v]}
    for i in range(form.m):
        new = {}
        for mono, coef in terms.items():
            for j, c in enumerate(form.factors[v][i]):
                if c.is_zero():
                    continue
                m2 = list(mono)
                m2[j] += 1
                key = tuple(m2)
                cur = new.get(key)
                new[key] = c * coef if cur is None else cur + c * coef
        terms = {k: v2 for k, v2 in new.items() if not v2.is_zero()}
    return terms
