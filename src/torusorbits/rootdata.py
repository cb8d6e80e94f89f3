"""Type A_{n-1} root combinatorics for SL_n.

Roots are matrix positions (i, j), i != j, zero-based.  A subset of the
simple roots is a bitmask over the n-1 cut points between consecutive rows;
the complement of the subset induces the block composition of n.  Weyl
elements are permutations carrying a signed monomial representative of
determinant one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import TooLarge, ValidationError

ENUM_CAP = 5


@dataclass(frozen=True)
class RootSubset:
    """Subset of the simple roots alpha_1..alpha_{n-1} of SL_n.

    simples holds the selected indices, 1-based: alpha_i separates rows
    i-1 and i (zero-based), so the missing indices cut n into blocks.
    """
    n: int
    simples: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be positive")
        if not all(1 <= i <= self.n - 1 for i in self.simples):
            raise ValidationError("simple root index out of range")

    @staticmethod
    def make(n: int, simples) -> "RootSubset":
        return RootSubset(n, frozenset(simples))

    @staticmethod
    def empty(n: int) -> "RootSubset":
        return RootSubset(n, frozenset())

    @staticmethod
    def full(n: int) -> "RootSubset":
        return RootSubset(n, frozenset(range(1, n)))

    @cached_property
    def composition(self):
        """Block sizes cut by the complement of the subset."""
        cuts = [i for i in range(1, self.n) if i not in self.simples]
        sizes = []
        prev = 0
        for c in cuts + [self.n]:
            sizes.append(c - prev)
            prev = c
        return tuple(sizes)

    @cached_property
    def blocks(self):
        """Index ranges of each block."""
        out = []
        start = 0
        for b in self.composition:
            out.append(range(start, start + b))
            start += b
        return tuple(out)

    def block_of(self):
        """Map row index -> block index."""
        out = [0] * self.n
        for k, blk in enumerate(self.blocks):
            for i in blk:
                out[i] = k
        return out

    def __str__(self):
        return "{" + ",".join(str(i) for i in sorted(self.simples)) + "}"

    @cached_property
    def mask(self) -> int:
        return sum(1 << (i - 1) for i in self.simples)


@dataclass(frozen=True)
class WeylElement:
    """Permutation of 0..n-1 with a det-one signed monomial representative.

    perm[i] is the image of i.  The representative has a single nonzero
    entry per row and column: column i carries +-1 in row perm[i]; when the
    permutation is odd, the entry in row 0 is negated to reach det 1.
    """
    perm: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i]

    @cached_property
    def signs(self) -> tuple:
        """Sign of the representative's entry in each column: -1 only in
        the column whose entry sits in row 0, and only for odd w."""
        odd = sum(p > q for p, q in itertools.combinations(self.perm, 2)) % 2
        return tuple(-1 if odd and row == 0 else 1 for row in self.perm)

    @cached_property
    def set_action(self) -> tuple:
        """Entry k, for the index set with bitmask k, is (sign, image):
        image is the bitmask of w(k), sign the product of the column signs
        over k times the sign of the permutation sorting w(k).  The minor
        of w1^{-1} x w2 on rows A and columns B is the sign of A under w1
        times that of B under w2 times the minor of x on the images."""
        out = []
        for k in range(1 << self.n):
            idx = [a for a in range(self.n) if k >> a & 1]
            swaps = sum(self.perm[a] > self.perm[b]
                        for a, b in itertools.combinations(idx, 2))
            out.append((math.prod(self.signs[a] for a in idx) * (-1) ** swaps,
                        sum(1 << self.perm[a] for a in idx)))
        return tuple(out)

    def matrix(self, field):
        """Monomial MatrixK representative over the given field."""
        from .decomp import MatrixK
        n = self.n
        rows = [[field.zero] * n for _ in range(n)]
        for col, (row, s) in enumerate(zip(self.perm, self.signs)):
            rows[row][col] = field.from_rational(Fraction(s))
        return MatrixK(field, rows)

    def __str__(self):
        return "[" + " ".join(str(p + 1) for p in self.perm) + "]"


@dataclass(frozen=True)
class ParabolicDescriptor:
    """A parabolic subgroup containing the diagonal torus, as a position set.

    positions holds the off-diagonal (i, j) whose root spaces lie in the
    subgroup; equality of descriptors is equality of position sets, and
    containment is read from the masks: p lies inside q exactly when
    p.mask & ~q.mask == 0.
    """
    n: int
    positions: frozenset

    def sorted_positions(self):
        return sorted(self.positions)

    @cached_property
    def mask(self) -> int:
        """The position set as n^2 bits: bit i*n + j for position (i, j)."""
        return sum(1 << (i * self.n + j) for i, j in self.positions)


def check_cap(n: int):
    """Refuse n outside the enumerable range 2 <= n <= ENUM_CAP."""
    if not 2 <= n <= ENUM_CAP:
        raise TooLarge(f"enumeration supports 2 <= n <= {ENUM_CAP}")


@lru_cache(maxsize=None)
def all_weyl(n: int):
    """All n! Weyl elements in lexicographic one-line order."""
    check_cap(n)
    return tuple(WeylElement(p) for p in itertools.permutations(range(n)))


def identity_weyl(n: int) -> WeylElement:
    return WeylElement(tuple(range(n)))


def longest_element(n: int) -> WeylElement:
    """The order-reversing permutation; conjugation swaps the two Borels."""
    if n < 2:
        raise ValidationError("n must be at least 2")
    return WeylElement(tuple(n - 1 - i for i in range(n)))


def parabolic_descriptor(subset: RootSubset, w: WeylElement = None,
                         opposite: bool = False) -> ParabolicDescriptor:
    """Position set of w P w^{-1} for the standard (block upper triangular)
    parabolic of the subset, or its opposite; conjugation moves position
    (i, j) to (w(i), w(j))."""
    n = subset.n
    if w is None:
        w = identity_weyl(n)
    if w.n != n:
        raise ValidationError("Weyl element size mismatch")
    blk = subset.block_of()
    pos = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            inside = blk[i] >= blk[j] if opposite else blk[i] <= blk[j]
            if inside:
                pos.add((w(i), w(j)))
    return ParabolicDescriptor(n, frozenset(pos))


def unipotent_positions(subset: RootSubset, sign: int = +1) -> frozenset:
    """Strictly block upper (sign +) or lower (sign -) positions: those of
    the standard parabolic outside its opposite, or the other way round."""
    upper = parabolic_descriptor(subset).positions
    lower = parabolic_descriptor(subset, opposite=True).positions
    return upper - lower if sign > 0 else lower - upper


@lru_cache(maxsize=None)
def coset_representatives(n: int, subset: RootSubset):
    """Lexicographically minimal representatives of the left cosets
    w W_subset, in lexicographic order: w W_subset permutes the values of w
    inside each block, so its least element is the one increasing on every
    block, w(i-1) < w(i) for each simple root alpha_i of the subset."""
    return tuple(w for w in all_weyl(n)
                 if all(w.perm[i - 1] < w.perm[i] for i in subset.simples))


def n_psi(n: int, subset: RootSubset) -> int:
    """Number of parabolic subgroups containing the torus conjugate to the
    standard one of the subset: the Weyl orbit of its position set, whose
    stabilizer is the Levi's Weyl group, so n!/prod(block sizes factorial)."""
    check_cap(n)
    return math.factorial(n) // math.prod(map(math.factorial,
                                              subset.composition))


def sum_n_psi_squared(n: int) -> int:
    """Sum over all subsets of the squared conjugate counts."""
    return sum(n_psi(n, subset) ** 2 for subset in all_subsets(n))


def all_subsets(n: int):
    """Every subset of the simple roots, by increasing size then mask."""
    subs = []
    for mask in itertools.product([0, 1], repeat=n - 1):
        subs.append(RootSubset.make(n, [i + 1 for i, b in enumerate(mask) if b]))
    subs.sort(key=lambda s: (len(s.simples), s.mask))
    return subs
