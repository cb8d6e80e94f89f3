"""Exact linear algebra over a number field.

MatrixK is an immutable n x n matrix of field elements.  Everything
else is read from one MinorTable of a matrix h, its minors each computed
once: the determinant and the inverse (the adjugate over the
determinant); whether m rows are independent (some m x m minor of the
rows padded to a square is nonzero); the block LDU of every Weyl
translate w1^{-1} h w2 along a block composition (unit block lower x
block diagonal x unit block upper), which exists exactly when the leading
principal minor at every block end is nonzero (a vanishing one returns
Absent, None, rather than pivoting, because pivoting would change the
Weyl component of the factorization); cell membership; and the Bruhat
cell, for the fixed convention h in V^- . w . P (lower unipotent times w
times upper Borel).  The table is exponential in n: all of these refuse
n > MINOR_TABLE_CAP with TooLarge before computing a minor.  Weyl
representatives act on a matrix as signed row and column permutations,
and on its minors as signed permutations of index sets
(WeylElement.set_action).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvariantViolation, Singular, TooLarge, ValidationError
from .numfield import FieldElement, NumberField
from .rootdata import RootSubset, WeylElement, identity_weyl

MINOR_TABLE_CAP = 10


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

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

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
        return MatrixK._of(self.field, [
            [_signed(table.minor(full ^ 1 << j, full ^ 1 << i) * inv,
                     (-1) ** (i + j)) for j in range(n)] for i in range(n)])

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
    """h = v_minus * levi * v_plus along the block pattern of subset.

    zv_plus is the product levi * v_plus, formed once for the recomposition
    check and kept for callers that need it."""
    v_minus: MatrixK
    levi: MatrixK
    v_plus: MatrixK
    subset: RootSubset
    zv_plus: MatrixK

    def recompose(self) -> MatrixK:
        return self.v_minus * self.levi * self.v_plus


class MinorTable:
    """The minors det h[rows, cols] of a square h (index sets as bitmasks),
    each computed once, on demand, by Laplace expansion along the first
    row: one NumberField.dot over minors one size smaller.  Kept with them,
    the inverse of every divisor and every signed ratio formed, so all
    Weyl translates w1^{-1} h w2 factor with at most one inverse per minor.
    Exponential in n: above MINOR_TABLE_CAP it raises TooLarge up front."""

    def __init__(self, h: MatrixK):
        if h.n > MINOR_TABLE_CAP:
            raise TooLarge(f"the table of minors supports n <= {MINOR_TABLE_CAP}")
        self.h, self.field, self.n = h, h.field, h.n
        self._minors = {0: h.field.one}     # keyed by rows | cols << n
        self._inverses = {}
        self._ratios = {}

    def minor(self, rows: int, cols: int) -> FieldElement:
        key = rows | cols << self.n
        m = self._minors.get(key)
        if m is None:
            r = (rows & -rows).bit_length() - 1
            xs, ys = [], []
            # a zero entry skips the minor it multiplies
            for t, c in enumerate(j for j in range(self.n) if cols >> j & 1):
                x = self.h.rows[r][c]
                if x:
                    xs.append(-x if t & 1 else x)
                    ys.append(self.minor(rows ^ 1 << r, cols ^ 1 << c))
            m = self._minors[key] = self.field.dot(xs, ys)
        return m

    def _ratio(self, rows: int, cols: int, drows: int, dcols: int,
               sign: int) -> FieldElement:
        """sign * minor(rows, cols) / minor(drows, dcols), divisor nonzero."""
        key = (rows, cols, drows, dcols, sign)
        r = self._ratios.get(key)
        if r is None:
            r = self.minor(rows, cols)
            if r and drows:
                d = drows | dcols << self.n
                if d not in self._inverses:
                    self._inverses[d] = self.minor(drows, dcols).inverse()
                r = r * self._inverses[d]
            r = self._ratios[key] = r if sign > 0 else -r
        return r

    def present(self, subset: RootSubset, w1: WeylElement,
                w2: WeylElement) -> bool:
        """Whether w1^{-1} h w2 has the block LDU of the subset: its leading
        principal minor at every block end is nonzero."""
        if subset.n != self.n:
            raise ValidationError("subset size mismatch")
        _check_weyl(self.h, w1, w2)
        ends = [(1 << b.stop) - 1 for b in subset.blocks]
        return all(self.minor(w1.set_action[e][1], w2.set_action[e][1])
                   for e in ends)

    def ldu(self, subset: RootSubset, w1: WeylElement,
            w2: WeylElement) -> Optional[BlockLDU]:
        """The unique M = v^- z v^+ for M = w1^{-1} h w2 and the subset's
        blocks, or None (Absent) when a boundary minor vanishes.  For i in
        the block [s, e), with the minors of M read through set_action,
        z[i, j] = det M[:s + {i}, :s + {j}] / det M[:s, :s] for j in the
        block (Sylvester's identity), v^+[i, j] = (-1)^(e-1-i)
        det M[:e, :e - {i} + {j}] / det M[:e, :e] for j >= e (Cramer's
        rule), and v^-[j, i] is its transpose.  z v^+ is formed as the
        product, so the exact check v^- (z v^+) == M, which raises
        InvariantViolation, covers every factor.  Both products skip only
        the zero and identity blocks of z and v^- that are set here."""
        if not self.present(subset, w1, w2):
            return None
        act1, act2 = w1.set_action, w2.set_action
        n, f = self.n, self.field

        def entry(a, b, d, sign=1):
            (sa, ra), (sb, cb) = act1[a], act2[b]
            (sd, rd), (se, cd) = act1[d], act2[d]
            return self._ratio(ra, cb, rd, cd, sign * sa * sb * sd * se)

        vminus = [[f.one if i == j else f.zero for j in range(n)]
                  for i in range(n)]
        vplus = [row[:] for row in vminus]
        levi, zv = ([[f.zero] * n for _ in range(n)] for _ in range(2))
        for blk in subset.blocks:
            s, e = blk.start, blk.stop
            head, lead = (1 << s) - 1, (1 << e) - 1
            for i in blk:
                for j in blk:
                    levi[i][j] = zv[i][j] = entry(head | 1 << i,
                                                  head | 1 << j, head)
                sign = (-1) ** (e - 1 - i)
                for j in range(e, n):
                    swapped = lead ^ 1 << i | 1 << j
                    vplus[i][j] = entry(lead, swapped, lead, sign)
                    vminus[j][i] = entry(swapped, lead, lead, sign)
            for i in blk:
                for j in range(e, n):
                    zv[i][j] = f.dot(levi[i][s:e], [vplus[t][j] for t in blk])
        target = weyl_untranslate(w1, self.h, w2).rows
        for blk in subset.blocks:
            for i in blk:
                left = vminus[i][:blk.start] + [f.one]
                if any(f.dot(left, [r[j] for r in zv[:blk.start]] + [zv[i][j]])
                       != target[i][j] for j in range(n)):
                    raise InvariantViolation("block LDU recomposition failed")
        return BlockLDU(*(MatrixK._of(f, m) for m in (vminus, levi, vplus)),
                        subset, MatrixK._of(f, zv))


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


def weyl_untranslate(w1: WeylElement, x: MatrixK, w2: WeylElement) -> MatrixK:
    """w1^{-1} x w2 for the det-one representatives of w1 and w2.

    A representative's inverse is its transpose, so the product is a signed
    permutation of rows and columns, with no field arithmetic beyond
    negation: entry (a, b) is s1[a] s2[b] x[w1(a), w2(b)], where s1, s2 are
    the representatives' column signs (WeylElement.signs)."""
    _check_weyl(x, w1, w2)
    p1, p2 = w1.perm, w2.perm
    s1, s2 = w1.signs, w2.signs
    rows = x.rows
    return MatrixK._of(x.field, [[_signed(rows[p1[a]][p2[b]], s1[a] * s2[b])
                                  for b in range(x.n)] for a in range(x.n)])


def weyl_translate(w1: WeylElement, x: MatrixK, w2: WeylElement) -> MatrixK:
    """w1 x w2^{-1} for the det-one representatives, the inverse of
    weyl_untranslate: entry (w1(a), w2(b)) is s1[a] s2[b] x[a, b]."""
    _check_weyl(x, w1, w2)
    n = x.n
    p1, p2 = w1.perm, w2.perm
    s1, s2 = w1.signs, w2.signs
    out = [[None] * n for _ in range(n)]
    for a, row in enumerate(x.rows):
        for b, v in enumerate(row):
            out[p1[a]][p2[b]] = _signed(v, s1[a] * s2[b])
    return MatrixK._of(x.field, out)


def _check_weyl(x: MatrixK, w1: WeylElement, w2: WeylElement) -> None:
    if w1.n != x.n or w2.n != x.n:
        raise ValidationError("Weyl element size mismatch")


def _signed(v: FieldElement, s: int) -> FieldElement:
    return v if s > 0 else -v


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
