"""The Gaussian elimination the package used before its determinants,
inverses and ranks moved onto the table of minors (over a number field)
and the fraction-free integer kernel (over Q), kept as a test oracle.

echelon and the helpers on top of it are generic over Fraction and
FieldElement entries: they use only +, -, *, 1 / x and the truth value
(nonzero).  Nothing here reads decomp.MinorTable or polyutil.bareiss, so
the oracles built on it check those independently.
"""

import math


def echelon(rows, ncols: int, stop_at_gap: bool = False):
    """Row echelon form of a copy of rows, pivoting in the first ncols
    columns (later columns, such as an augmented right-hand side, are
    carried along).

    Each pivot is the first nonzero entry at or below the current row; its
    row is scaled so the pivot is 1 and the entries below it are cleared.
    Returns (rows, pivots, values, sign): pivots[r] is the pivot column of
    row r, so the rank is len(pivots); values[r] is that pivot's original
    value and sign the sign of the row swaps, so a square matrix of full
    rank has determinant sign * prod(values).  With stop_at_gap the
    elimination returns at the first column without a pivot, where a
    square matrix is already known to be singular.
    """
    a = [list(r) for r in rows]
    pivots = []
    values = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            if stop_at_gap:
                break
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        values.append(p)
        inv = 1 / p
        prow = [inv * y if y else y for y in a[r][c:]]
        a[r][c:] = prow
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f:
                a[i][c:] = [x - f * y if y else x
                            for x, y in zip(a[i][c:], prow)]
        pivots.append(c)
    return a, pivots, values, sign


def reduce_above(rows, pivots):
    """Clear the entries above the pivots of an echelon form, in place and
    without further scaling: the reduced row echelon form."""
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        prow = rows[r][c:]
        for i in range(r):
            f = rows[i][c]
            if f:
                rows[i][c:] = [x - f * y if y else x
                               for x, y in zip(rows[i][c:], prow)]
    return rows


def determinant(rows, zero):
    """Determinant of a square matrix; zero when it is singular."""
    _, pivots, values, sign = echelon(rows, len(rows), stop_at_gap=True)
    if len(pivots) < len(rows):
        return zero
    det = math.prod(values[1:], start=values[0])
    return det if sign > 0 else -det


def invert(rows, one, zero):
    """Inverse of a square matrix as a list of rows, or None if singular."""
    n = len(rows)
    aug = [list(row) + [one if j == i else zero for j in range(n)]
           for i, row in enumerate(rows)]
    a, pivots, _, _ = echelon(aug, n, stop_at_gap=True)
    if len(pivots) < n:
        return None
    return [row[n:] for row in reduce_above(a, pivots)]


def solve(rows, rhs, zero):
    """A solution x of rows . x = rhs, with every free unknown zero, or
    None when the system is inconsistent."""
    ncols = len(rows[0])
    a, pivots, _, _ = echelon([list(row) + [b] for row, b in zip(rows, rhs)],
                              ncols)
    if any(row[ncols] for row in a[len(pivots):]):
        return None
    reduce_above(a, pivots)
    x = [zero] * ncols
    for row, c in zip(a, pivots):
        x[c] = row[ncols]
    return x
