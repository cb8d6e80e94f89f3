"""Exact linear algebra over a number field.

MatrixK is an immutable n x n matrix of field elements.  Everything
else is read from one MinorTable of a matrix h, its minors each computed
once: the determinant and the inverse (the adjugate over the
determinant); whether m rows are independent (some m x m minor of the
rows padded to a square is nonzero); the block LDU of every Weyl
translate w1^{-1} h w2 along a block composition (unit block lower x
block diagonal x unit block upper), on interned ids, which exists exactly
when the leading principal minor at every block end is nonzero (a
vanishing one returns Absent, None, rather than pivoting, which would
change the Weyl component); cell membership; and the Bruhat cell, for
the convention h in V^- . w . P (lower unipotent times w times upper
Borel).  All refuse n > MINOR_TABLE_CAP with TooLarge before computing a
minor.  Weyl representatives act on a matrix as signed row and column
permutations, on its minors as signed permutations of index sets
(WeylElement.set_action).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import polyutil as pu
from .errors import InvariantViolation, Singular, TooLarge, ValidationError
from .numfield import FieldElement, NumberField
from .rootdata import RootSubset, WeylElement, identity_weyl

MINOR_TABLE_CAP = 10
ZERO, ONE = 0, 1     # the ids of zero and one in every MinorTable


class MatrixK:
    """Immutable square matrix with entries in one number field."""

    __slots__ = ("field", "n", "rows", "_det")

    def __init__(self, field: NumberField, rows):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValidationError("matrix must be square")
        rows = tuple(tuple(x if isinstance(x, FieldElement)
                           else field.from_rational(x) for x in row)
                     for row in rows)
        if any(x.field is not field for row in rows for x in row):
            raise ValidationError("entries from a different field")
        self.field, self.n, self.rows, self._det = field, n, rows, None

    # -- constructors --

    @classmethod
    def _of(cls, field: NumberField, rows) -> "MatrixK":
        """The matrix of square rows whose entries are all elements of
        field, unchecked: for this module's own results."""
        m = object.__new__(cls)
        m.field, m.n, m._det = field, len(rows), None
        m.rows = tuple(map(tuple, rows))
        return m

    @staticmethod
    def identity(field: NumberField, n: int) -> "MatrixK":
        return MatrixK._of(field, [[field.one if i == j else field.zero
                                    for j in range(n)] for i in range(n)])

    @staticmethod
    def from_rational_rows(field: NumberField, rows) -> "MatrixK":
        return MatrixK(field, [[field.from_rational(Fraction(x)) for x in row]
                               for row in rows])

    # -- basics --

    def __eq__(self, other):
        return (isinstance(other, MatrixK) and self.field is other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(x.as_str() for x in row) for row in self.rows)
        return f"MatrixK[{body}]"

    def __mul__(self, other: "MatrixK") -> "MatrixK":
        if not isinstance(other, MatrixK):
            return NotImplemented
        if other.n != self.n or other.field is not self.field:
            raise ValidationError("size or field mismatch")
        dot = self.field.dot
        cols = list(zip(*other.rows))
        return MatrixK._of(self.field, [[dot(row, col) for col in cols]
                                        for row in self.rows])

    def det(self) -> FieldElement:
        if self._det is None:
            full = (1 << self.n) - 1
            self._det = MinorTable(self).minor(full, full)
        return self._det

    def inverse(self) -> "MatrixK":
        """The adjugate over the determinant, read from one MinorTable:
        entry (i, j) is (-1)^(i+j) times the minor of h without row j and
        column i, over det h."""
        n, full = self.n, (1 << self.n) - 1
        table = MinorTable(self)
        det = self._det = table.minor(full, full)
        if not det:
            raise Singular("matrix is singular")
        inv = det.inverse()
        signed = inv, -inv
        return MatrixK._of(self.field, [
            [table.minor(full ^ 1 << j, full ^ 1 << i) * signed[(i + j) & 1]
             for j in range(n)] for i in range(n)])

    def is_monomial(self) -> bool:
        """Exactly one nonzero entry in every row and every column."""
        n = self.n
        rc = [0] * n
        cc = [0] * n
        for i in range(n):
            for j in range(n):
                if not self.rows[i][j].is_zero():
                    rc[i] += 1
                    cc[j] += 1
        return all(v == 1 for v in rc) and all(v == 1 for v in cc)

    def is_identity(self) -> bool:
        return self == MatrixK.identity(self.field, self.n)


@dataclass(frozen=True)
class BlockLDU:
    """h = v_minus * levi * v_plus along the block pattern of subset."""
    v_minus: MatrixK
    levi: MatrixK
    v_plus: MatrixK
    subset: RootSubset

    def recompose(self) -> MatrixK:
        return self.v_minus * self.levi * self.v_plus


class MinorTable:
    """The minors det h[rows, cols] of a square h (index sets as bitmasks),
    each computed once, on demand, into the table's memo by
    polyutil.laplace_minor: one NumberField.dot over minors one size
    smaller.  Block LDUs run on ids: each value they form is kept once in
    values, keyed by its lowest-terms (num, den), and negation, products,
    sums and quotients of minors are memoised on ids, so each operand pair
    is computed once."""

    def __init__(self, h: MatrixK):
        if h.n > MINOR_TABLE_CAP:
            raise TooLarge(f"the table of minors supports n <= {MINOR_TABLE_CAP}")
        self.h, self.field, self.n = h, h.field, h.n
        self._minors = {0: h.field.one}     # keyed by rows | cols << n
        self._ids, self.values, self._negs, self._ratios = {}, [], {}, {}
        self._products, self._sums, self._quotients, self._plans, self._h = {}, {}, {}, {}, None
        self.id(h.field.zero), self.id(h.field.one)

    def minor(self, rows: int, cols: int) -> FieldElement:
        m = self._minors.get(rows | cols << self.n)
        if m is None:
            m = pu.laplace_minor(self.h.rows, rows, cols, self._minors,
                                 self.field.dot)
        return m

    def id(self, x: FieldElement) -> int:
        i = self._ids.setdefault((x.num, x.den), len(self.values))
        if i == len(self.values):
            self.values.append(x)
        return i

    def neg(self, a: int) -> int:
        b = self._negs.get(a)
        if b is None:
            b = self._negs[a] = self.id(-self.values[a])
            self._negs[b] = a
        return b

    def mul(self, a: int, b: int) -> int:
        if a <= ONE or b <= ONE:
            return a * b        # the ids 0 and 1 multiply as their values
        return self._memo(self._products, operator.mul, a, b)

    def add(self, a: int, b: int) -> int:
        return self._memo(self._sums, operator.add, a, b) if a and b else a or b

    def _memo(self, memo: dict, op, a: int, b: int) -> int:
        """The id of op(a, b) for a commutative op, computed once."""
        key = (a, b) if a < b else (b, a)
        r = memo.get(key)
        if r is None:
            r = memo[key] = self.id(op(self.values[a], self.values[b]))
        return r

    def ids(self, m: MatrixK) -> list:
        """The flat row-major ids of the entries of m."""
        return [self.id(x) for row in m.rows for x in row]

    def matmul(self, xs, ys) -> list:
        """The flat ids of the product of the n x n matrices of the flat
        ids xs and ys, each entry one sum of products on ids."""
        n = self.n
        return [self._sum_of_products(xs, ys, [(i + t, t * n + j)
                                               for t in range(n)])
                for i in range(0, n * n, n) for j in range(n)]

    def matrix(self, ids) -> MatrixK:
        """The matrix of flat row-major ids, one shared element per id."""
        vals, n = self.values, self.n
        return MatrixK._of(self.field, [[vals[x] for x in ids[r:r + n]]
                                        for r in range(0, len(ids), n)])

    def translate(self, w1: WeylElement, ids, w2: WeylElement) -> list:
        """The flat ids of w1 x w2^{-1} for the det-one representatives
        (inverse = transpose): entry (w1(a), w2(b)) is s1[a] s2[b] x[a, b],
        with s1, s2 their column signs (WeylElement.signs)."""
        n, p1, p2, s1, s2 = self.n, w1.perm, w2.perm, w1.signs, w2.signs
        out = [ZERO] * (n * n)
        for (a, b), x in zip(itertools.product(range(n), repeat=2), ids):
            out[p1[a] * n + p2[b]] = x if s1[a] == s2[b] else self.neg(x)
        return out

    def _ratio(self, key) -> int:
        """minor(rows, cols) / minor(drows, dcols), divisor nonzero."""
        r, d = (self.id(self.minor(*key[k:k + 2])) for k in (0, 2))
        if r and d != ONE:
            if (r, d) not in self._quotients:
                self._quotients[r, d] = self.id(self.values[r] / self.values[d])
            r = self._quotients[r, d]
        self._ratios[key] = r
        return r

    def _sum_of_products(self, xs, ys, terms, acc=ZERO) -> int:
        """The id of acc plus the sum of xs[x] ys[y] over (x, y) in terms."""
        for x, y in terms:
            acc = self.add(acc, self.mul(xs[x], ys[y]))
        return acc

    def present(self, subset: RootSubset, w1: WeylElement,
                w2: WeylElement) -> bool:
        """Whether w1^{-1} h w2 has the block LDU of the subset: its leading
        principal minor at every block end is nonzero."""
        if not subset.n == w1.n == w2.n == self.n:
            raise ValidationError("subset or Weyl element size mismatch")
        return all(self.minor(w1.set_action[e][1], w2.set_action[e][1])
                   for e in ((1 << b.stop) - 1 for b in subset.blocks))

    def _plan(self, subset: RootSubset):
        """Per block, its entries of z, v^+, v^- as (slot, rows, cols, sign)
        over one divisor; the terms of z v^+ and of v^- (z v^+) off it."""
        plan = self._plans.get(subset.mask)
        if plan is None:
            n, groups, products, checks = self.n, [], [], []
            for blk in subset.blocks:
                s, e = blk.start, blk.stop
                head, lead = (1 << s) - 1, (1 << e) - 1
                right = [(i, j, lead ^ 1 << i | 1 << j, (-1) ** (e - 1 - i))
                         for i in blk for j in range(e, n)]
                groups += [
                    (head, 1, [(i * n + j, head | 1 << i, head | 1 << j, 1)
                               for i in blk for j in blk]),
                    (lead, 2, [(i * n + j, lead, swapped, sign)
                               for i, j, swapped, sign in right]),
                    (lead, 0, [(j * n + i, swapped, lead, sign)
                               for i, j, swapped, sign in right])]
                products += [(i * n + j, [(i * n + t, t * n + j) for t in blk])
                             for i, j, _, _ in right]
                checks += [[(i * n + r, r * n + j) for r in range(s)]
                           for i in blk for j in range(n)]
            plan = self._plans[subset.mask] = groups, products, checks
        return plan

    def ldu_ids(self, subset: RootSubset, w1: WeylElement, w2: WeylElement):
        """ldu on ids: (v^-, z v^+, v^+) as flat row-major ids, or None."""
        if not self.present(subset, w1, w2):
            return None
        if self._h is None:     # h's ids and the identity's, for ldu only
            self._h = self.ids(self.h)
            self._unit = [int(i == j) for i in range(self.n) for j in range(self.n)]
        groups, products, checks = self._plan(subset)
        act1, act2 = w1.set_action, w2.set_action
        ratios, neg = self._ratios, self.neg
        out = self._unit[:], [ZERO] * self.n ** 2, self._unit[:]
        for d, part, entries in groups:
            (sd, rd), (se, cd) = act1[d], act2[d]
            ids = out[part]
            for slot, a, b, sign in entries:
                (sa, ra), (sb, cb) = act1[a], act2[b]
                r = ratios.get((ra, cb, rd, cd))
                if r is None:
                    r = self._ratio((ra, cb, rd, cd))
                ids[slot] = r if sign * sa * sb * sd * se > 0 else neg(r)
        vminus, zv, vplus = out
        for slot, terms in products:
            zv[slot] = self._sum_of_products(zv, vplus, terms)
        recomposed = [self._sum_of_products(vminus, zv, terms, zv[k])
                      for k, terms in enumerate(checks)]
        if self.translate(w1, recomposed, w2) != self._h:
            raise InvariantViolation("block LDU recomposition failed")
        return out

    def ldu(self, subset: RootSubset, w1: WeylElement,
            w2: WeylElement) -> Optional[BlockLDU]:
        """The unique M = v^- z v^+ for M = w1^{-1} h w2 and the subset's
        blocks, or None (Absent) when a boundary minor vanishes.  For i in
        the block [s, e), with M's minors read through set_action, z[i, j] =
        det M[:s + {i}, :s + {j}] / det M[:s, :s] for j in the block
        (Sylvester), v^+[i, j] = (-1)^(e-1-i) det M[:e, :e - {i} + {j}] /
        det M[:e, :e] for j >= e (Cramer), v^-[j, i] its transpose.  The
        check w1 v^- (z v^+) w2^{-1} == h on every entry covers them all."""
        ids = self.ldu_ids(subset, w1, w2)
        if ids is None:
            return None
        vminus, zv, vplus = ids
        n, blk = self.n, subset.block_of()
        levi = [x if blk[k // n] == blk[k % n] else ZERO
                for k, x in enumerate(zv)]
        return BlockLDU(*map(self.matrix, (vminus, levi, vplus)), subset)


def block_ldu(h: MatrixK, subset: RootSubset) -> Optional[BlockLDU]:
    """The block LDU h = v^- z v^+ along the subset's blocks, or None
    (Absent): MinorTable.ldu with identity Weyl elements."""
    e = identity_weyl(h.n)
    return MinorTable(h).ldu(subset, e, e)


def rows_independent(field: NumberField, rows) -> bool:
    """Whether the m rows of length n >= m over the field are linearly
    independent: some m x m minor of theirs is nonzero, read from the
    table of the rows padded with zero rows to n x n."""
    m, n = len(rows), len(rows[0])
    padded = list(rows) + [[field.zero] * n] * (n - m)
    table = MinorTable(MatrixK._of(field, padded))
    top = (1 << m) - 1
    return any(table.minor(top, sum(1 << j for j in cols))
               for cols in itertools.combinations(range(n), m))


def bruhat_cell(h: MatrixK) -> WeylElement:
    """The unique w with h in V^- . w . P for the lower x upper Borel pair.

    h = L w U gives det h[R, :b+1] = +-det L[R, S] det U[:b+1, :b+1] for
    S = w({0..b}), and for the lower unitriangular L, det L[S, S] = 1 while
    det L[R, S] = 0 when R has a smaller row in place of w(b).  So w(b) is
    the first row outside w({0..b-1}) whose minor on the leading b + 1
    columns, with those rows, is nonzero: the leading-column rank profile.
    """
    n = h.n
    tab = MinorTable(h)
    if not tab.minor((1 << n) - 1, (1 << n) - 1):
        raise Singular("Bruhat cell needs an invertible matrix")
    perm = []
    seen = 0
    for b in range(n):
        perm.append(next(i for i in range(n) if not seen >> i & 1
                         and tab.minor(seen | 1 << i, (2 << b) - 1)))
        seen |= 1 << perm[-1]
    return WeylElement(tuple(perm))


def cell_membership(h: MatrixK, subset: RootSubset, w1: WeylElement,
                    w2: WeylElement) -> bool:
    """Whether h lies in w1 . V^- P . w2^{-1} for the subset's parabolic.

    Equivalent to the block LDU of w1^{-1} h w2 existing, read from the
    boundary minors alone; invariant under replacing w1, w2 by other
    representatives of their cosets modulo the Levi's Weyl group."""
    return MinorTable(h).present(subset, w1, w2)


def unipotent_matrix(field, n: int, entries: dict) -> MatrixK:
    """Identity plus prescribed off-diagonal entries (exact)."""
    rows = [[field.one if i == j else field.zero for j in range(n)]
            for i in range(n)]
    for (i, j), v in entries.items():
        if i == j:
            raise ValidationError("diagonal entries are fixed at one")
        rows[i][j] = v if isinstance(v, FieldElement) else field.from_rational(v)
    return MatrixK(field, rows)


def diagonal_matrix(field, diag) -> MatrixK:
    n = len(diag)
    rows = [[field.zero] * n for _ in range(n)]
    for i, v in enumerate(diag):
        rows[i][i] = v if isinstance(v, FieldElement) else field.from_rational(v)
    return MatrixK(field, rows)
