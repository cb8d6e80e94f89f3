"""Exact linear algebra over a number field.

MatrixK is an immutable n x n matrix of field elements.  The block LDU
factorization splits a matrix along a block composition into unit block
lower x block diagonal x unit block upper, exactly when every leading
principal minor at a block boundary is nonzero; a vanishing boundary minor
returns Absent (None) rather than pivoting, because pivoting would change
the Weyl component of the factorization.  The Bruhat cell of a matrix is
read off the rank profile of its leading submatrices, for the fixed
convention h in V^- . w . P (lower unipotent times w times upper Borel).
Weyl representatives act on a matrix as signed row and column
permutations (weyl_untranslate, weyl_translate), never as products.
Determinants, inverses and ranks come from the elimination kernel in
polyutil.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvariantViolation, Singular, ValidationError
from .numfield import FieldElement, NumberField
from .polyutil import determinant, echelon, invert
from .rootdata import RootSubset, WeylElement


class MatrixK:
    """Immutable square matrix with entries in one number field."""

    __slots__ = ("field", "n", "rows", "_det")

    def __init__(self, field: NumberField, rows):
        n = len(rows)
        conv = []
        for row in rows:
            if len(row) != n:
                raise ValidationError("matrix must be square")
            conv.append(tuple(x if isinstance(x, FieldElement)
                              else field.from_rational(x) for x in row))
        for row in conv:
            for x in row:
                if x.field is not field:
                    raise ValidationError("entries from a different field")
        self.field = field
        self.n = n
        self.rows = tuple(conv)
        self._det = None

    # -- constructors --

    @staticmethod
    def identity(field: NumberField, n: int) -> "MatrixK":
        return MatrixK(field, [[field.one if i == j else field.zero
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
        return MatrixK(self.field, [[dot(row, col) for col in cols]
                                    for row in self.rows])

    def det(self) -> FieldElement:
        if self._det is None:
            self._det = determinant(self.rows, self.field.zero)
        return self._det

    def inverse(self) -> "MatrixK":
        inv = invert(self.rows, self.field.one, self.field.zero)
        if inv is None:
            raise Singular("matrix is singular")
        return MatrixK(self.field, inv)

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


def block_ldu(h: MatrixK, subset: RootSubset) -> Optional[BlockLDU]:
    """Unique factorization h = v^- z v^+ for the block composition, when the
    leading principal minors at every block boundary are nonzero; None
    (Absent) otherwise.  No pivoting: a vanishing boundary minor is the
    answer, not an obstacle, so this stays outside the elimination kernel,
    which only inverts the pivot blocks."""
    n = h.n
    if subset.n != n:
        raise ValidationError("subset size mismatch")
    f = h.field
    blocks = subset.blocks
    a = [list(r) for r in h.rows]
    vminus = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    # eliminate below each diagonal block, block column by block column;
    # a pivot block's rows are final once it is reached, so its inverse
    # serves again for v_plus.  The last block has nothing below it but
    # must also be invertible (det h != 0 overall).
    invs = []
    for blk in blocks:
        lo, hi = blk.start, blk.stop
        pivot = [row[lo:hi] for row in a[lo:hi]]
        inv = invert(pivot, f.one, f.zero)
        if inv is None:
            return None
        invs.append(inv)
        below = range(hi, n)
        for r in below:
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
    zv_plus = z * v_plus
    if v_minus * zv_plus != h:
        raise InvariantViolation("block LDU recomposition failed")
    return BlockLDU(v_minus, z, v_plus, subset, zv_plus)


def bruhat_cell(h: MatrixK) -> WeylElement:
    """The unique w with h in V^- . w . P for the lower x upper Borel pair.

    Recovered from the rank profile r(i, j) = rank of the leading i x j
    submatrix, which both factors preserve: w maps column b to the first row
    index where the rank of the leading submatrix jumps.
    """
    n = h.n
    if h.det().is_zero():
        raise Singular("Bruhat cell needs an invertible matrix")
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = len(echelon([row[:j] for row in h.rows[:i]], j)[1])
    perm = [0] * n
    for b in range(1, n + 1):
        for i in range(1, n + 1):
            if r[i][b] - r[i][b - 1] == 1:
                perm[b - 1] = i - 1
                break
    return WeylElement(tuple(perm))


def cell_membership(h: MatrixK, subset: RootSubset, w1: WeylElement,
                    w2: WeylElement) -> bool:
    """Whether h lies in w1 . V^- P . w2^{-1} for the subset's parabolic.

    Equivalent to the block LDU of w1^{-1} h w2 existing; invariant under
    replacing w1, w2 by other representatives of their cosets modulo the
    Levi's Weyl group."""
    return block_ldu(weyl_untranslate(w1, h, w2), subset) is not None


def weyl_untranslate(w1: WeylElement, x: MatrixK, w2: WeylElement) -> MatrixK:
    """w1^{-1} x w2 for the det-one representatives of w1 and w2.

    A representative's inverse is its transpose, so the product is a signed
    permutation of rows and columns, with no field arithmetic beyond
    negation: entry (a, b) is s1[a] s2[b] x[w1(a), w2(b)], where s1, s2 are
    the representatives' column signs (WeylElement.signs)."""
    _check_weyl(x, w1, w2)
    s1, s2 = w1.signs, w2.signs
    rows = x.rows
    return MatrixK(x.field, [[_signed(rows[w1(a)][w2(b)], s1[a] * s2[b])
                              for b in range(x.n)] for a in range(x.n)])


def weyl_translate(w1: WeylElement, x: MatrixK, w2: WeylElement) -> MatrixK:
    """w1 x w2^{-1} for the det-one representatives, the inverse of
    weyl_untranslate: entry (w1(a), w2(b)) is s1[a] s2[b] x[a, b]."""
    _check_weyl(x, w1, w2)
    n = x.n
    s1, s2 = w1.signs, w2.signs
    out = [[None] * n for _ in range(n)]
    for a, row in enumerate(x.rows):
        for b, v in enumerate(row):
            out[w1(a)][w2(b)] = _signed(v, s1[a] * s2[b])
    return MatrixK(x.field, out)


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
