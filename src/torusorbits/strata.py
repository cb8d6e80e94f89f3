"""Stratification of a locally divergent torus orbit closure at two places.

For components g1, g2 in SL_n(K) the closure of the diagonal-torus orbit
through (g1, g2) is a finite union of torus orbits, one for each pair of
parabolic subgroups (first a conjugate of a standard opposite parabolic,
second of the standard one, same block shape) whose attached Bruhat-type
cell contains g1 g2^{-1}.  This module enumerates those pairs, attaches an
explicit orbit representative to each, merges pairs whose representatives
coincide as exact points (the map pair -> orbit is not injective off the
generic locus; exact point equality is the decidable fragment of orbit
equality, and it is what collapses every monomial-quotient input to a
single record), orders the records into the closure poset, and checks the
counting bounds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from .decomp import MatrixK, MinorTable
from .errors import BoundViolated, MinimalNotBorel, ValidationError
from .numfield import NumberField
from .rootdata import (ParabolicDescriptor, RootSubset, WeylElement,
                       all_subsets, check_cap, coset_representatives, n_psi,
                       parabolic_descriptor, sum_n_psi_squared)


@dataclass(frozen=True)
class OrbitInput:
    """Tuple of SL_n(K) components, one per place; the torus orbit through
    their class is automatically locally divergent for K-rational points."""
    components: tuple

    def __post_init__(self):
        comps = self.components
        if len(comps) < 2:
            raise ValidationError("need at least two components")
        n = comps[0].n
        f = comps[0].field
        for c in comps:
            if c.n != n or c.field is not f:
                raise ValidationError("components must share size and field")
            if not (c.det() == f.one):
                raise ValidationError("components must have determinant one")

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def field(self) -> NumberField:
        return self.components[0].field

    @property
    def r(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ParabolicPair:
    first: ParabolicDescriptor       # conjugate of the opposite parabolic
    second: ParabolicDescriptor      # conjugate of the standard parabolic
    subset: RootSubset
    witnesses: tuple                 # (w1, w2) coset representatives
    order_key: tuple = None          # (|subset|, mask, i1, i2)

    @cached_property
    def mask(self) -> int:
        """Both position sets in 2 n^2 bits, the second above the first:
        another pair sits inside this one exactly when its mask b has
        b & ~mask == 0."""
        return self.first.mask | self.second.mask << (self.subset.n ** 2)


@dataclass
class StratumRecord:
    """One torus orbit inside the closure.

    pairs collects every parabolic pair that lands on this exact
    representative point; off the generic locus a record can carry several.
    pair is the first of them in the deterministic order.
    """
    pairs: List[ParabolicPair]
    representative: tuple            # (MatrixK, MatrixK)
    is_closed: bool = False

    @property
    def pair(self) -> ParabolicPair:
        return self.pairs[0]

    @property
    def levi_rank_marker(self) -> int:
        return min(len(p.subset.simples) for p in self.pairs)

    @property
    def is_top(self) -> bool:
        n = self.pairs[0].subset.n
        full = RootSubset.full(n).simples
        return any(p.subset.simples == full for p in self.pairs)


@dataclass
class StrataSet:
    input: OrbitInput
    records: List[StratumRecord]
    pair_count: int = 0                  # size of the raw pair set
    poset_edges: Optional[list] = None   # filled by closure_poset
    minimal_pairs: Optional[list] = None  # filled by enumerate_strata

    @property
    def n(self) -> int:
        return self.input.n

    def all_pairs(self):
        return [p for rec in self.records for p in rec.pairs]

    @property
    def is_generic(self) -> bool:
        """Whether all (n!)^2 Borel pairs are present: h = g1 g2^{-1} lies
        in every Borel-pair translate of the open cell, so no minor of h
        vanishes and the stratum count reaches the full bound."""
        borel = sum(1 for p in self.all_pairs() if not p.subset.simples)
        return borel == math.factorial(self.n) ** 2


def enumerate_strata(g1: MatrixK, g2: MatrixK) -> StrataSet:
    """All strata of the orbit closure through (g1, g2).

    For every subset of the simple roots and every pair of Weyl coset
    representatives, the pair joins the set exactly when h = g1 g2^{-1} lies
    in the translated cell, that is, when w1^{-1} h w2 = v^- z v^+ has a
    block LDU, read from one MinorTable of h; pair_representative attaches
    the orbit representative.  Deterministic order: subset size, subset
    mask, then the two representative indices.
    """
    n = g1.n
    check_cap(n)
    inp = OrbitInput((g1, g2))  # refuses components of different size or field
    # an identity g2 (every `--g2 id` run) is never inverted or multiplied by
    identity = g2.is_identity()
    table = MinorTable(g1 if identity else g1 * g2.inverse())
    right = None if identity else table.ids(g2)
    groups = {}
    for subset in all_subsets(n):
        reps = coset_representatives(n, subset)
        firsts = [parabolic_descriptor(subset, w, opposite=True) for w in reps]
        seconds = [parabolic_descriptor(subset, w) for w in reps]
        for i1, w1 in enumerate(reps):
            for i2, w2 in enumerate(reps):
                rep = pair_representative(table, subset, w1, w2)
                if rep is None:
                    continue
                # equal ids: the same point, hence the same orbit; g2 is
                # invertible, so multiplying by it keeps points apart
                groups.setdefault(rep, []).append(ParabolicPair(
                    firsts[i1], seconds[i2], subset, (w1, w2),
                    (len(subset.simples), subset.mask, i1, i2)))
    records = [StratumRecord(sorted(pairs, key=lambda p: p.order_key),
                             materialised(table, rep, right))
               for rep, pairs in groups.items()]
    records.sort(key=lambda r: r.pairs[0].order_key)
    out = StrataSet(inp, records, pair_count=sum(map(len, groups.values())))
    _mark_closed(out)
    return out


def pair_representative(table: MinorTable, subset: RootSubset,
                        w1: WeylElement, w2: WeylElement) -> Optional[tuple]:
    """The orbit representative of the pair (w1, w2), before g2, as one
    tuple of the 2 n^2 ids of its components, or None when h = g1 g2^{-1}
    (the table's matrix) misses the pair's cell.  From w1^{-1} h w2 =
    v^- z v^+ and g1 = h g2, (v^-)^{-1} w1^{-1} g1 = z v^+ w2^{-1} g2, so
    the textbook (w1 (v^-)^{-1} w1^{-1} g1, w2 v^+ w2^{-1} g2) is
    (w1 (z v^+) w2^{-1} g2, w2 v^+ w2^{-1} g2): no inverse of v^- is
    formed, and the Weyl factors are signed permutations of ids."""
    ids = table.ldu_ids(subset, w1, w2)
    if ids is None:
        return None
    _, zv_plus, v_plus = ids
    return tuple(table.translate(w1, zv_plus, w2)
                 + table.translate(w2, v_plus, w2))


def materialised(table: MinorTable, rep: tuple, right=None):
    """The MatrixK pair of the representative's ids times the matrix of the
    flat ids right (g2 interned by MinorTable.ids, None for the identity),
    each entry of a product one sum of products on the table's ids."""
    nn = table.n ** 2
    return tuple(table.matrix(ids if right is None
                              else table.matmul(ids, right))
                 for ids in (rep[:nn], rep[nn:]))


def _inside(pairs):
    """For each pair, in order, the bitset (over indices into pairs) of the
    pairs strictly inside it.  Pair b sits inside pair a exactly when b's
    first descriptor lies inside a's first and b's second inside a's
    second, so the pairs inside a are the AND of two unions of pair
    bitsets, one per side, each formed once per descriptor.  Strictly
    inside also means a subset strictly inside a's (a lemma that
    tests/test_strata.py checks for every n the cap admits), so a union
    runs over the descriptors of smaller subsets only."""
    sides = ({}, {})    # subset mask -> descriptor mask -> bitset of pairs
    for k, p in enumerate(pairs):
        for side, d in zip(sides, (p.first, p.second)):
            group = side.setdefault(p.subset.mask, {})
            group[d.mask] = group.get(d.mask, 0) | 1 << k
    unions = ({}, {})

    def union(side, sub, mask):
        out = unions[side].get(mask)
        if out is None:
            out = unions[side][mask] = _union(
                bits for t, group in sides[side].items()
                if t & sub == t != sub      # t strictly inside sub
                for m, bits in group.items() if m & mask == m)
        return out

    for p in pairs:
        sub = p.subset.mask
        yield union(0, sub, p.first.mask) & union(1, sub, p.second.mask)


def _mark_closed(s: StrataSet) -> None:
    """A record is closed when it carries a pair minimal in the pair set:
    no other pair sits strictly inside it (_inside).  The minimal pairs are
    kept on s for closed_strata."""
    pairs = s.all_pairs()
    s.minimal_pairs = [p for p, inside in zip(pairs, _inside(pairs))
                       if not inside]
    minimal = {p.mask for p in s.minimal_pairs}
    for rec in s.records:
        rec.is_closed = any(p.mask in minimal for p in rec.pairs)


def closure_poset(s: StrataSet):
    """Transitive reduction of the containment order between records.

    Edge (i, j) means record j's pair sits strictly inside record i's, so
    the i-th orbit's closure contains the j-th orbit; the top record is
    always a source and never a target.

    The order is kept as one successor bitset per record (bit j of succ[i]
    for the relation above), read from the pairs' bitsets of _inside, and
    the reduction keeps the successors of i that no successor of i reaches:
    succ[i] & ~(OR of succ[k], k in succ[i]).
    """
    recs = s.records
    pairs = s.all_pairs()
    owner = [i for i, rec in enumerate(recs) for _ in rec.pairs]
    merged = len(pairs) > len(recs)     # else pair k is record k
    succ = [0] * len(recs)
    for i, inside in zip(owner, _inside(pairs)):
        if merged:
            inside = _union(1 << owner[k] for k in _bits(inside))
        succ[i] |= inside & ~(1 << i)
    inner = _union(1 << k for k, row in enumerate(succ) if row)
    edges = []
    for i, row in enumerate(succ):
        reached = 0
        for k in _bits(row & inner):    # records with nothing inside skipped
            reached |= succ[k]
        edges.extend((i, j) for j in _bits(row & ~reached))
    s.poset_edges = edges
    return s.poset_edges


def _union(bitsets) -> int:
    return functools.reduce(operator.or_, bitsets, 0)


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def closed_strata(s: StrataSet) -> List[StratumRecord]:
    """The closed orbits: records carrying a minimal pair.

    Every minimal pair must be a pair of Borel descriptors; anything else is
    a bug, never expected."""
    for p in s.minimal_pairs:
        if p.subset.simples:
            raise MinimalNotBorel(
                f"minimal pair has non-empty subset {p.subset}")
    return [rec for rec in s.records if rec.is_closed]


def is_orbit_closed(inp: OrbitInput) -> bool:
    """True exactly when every g_i g_r^{-1} is a monomial matrix."""
    last = inp.components[-1]
    last_inv = last.inverse()
    return all((c * last_inv).is_monomial() for c in inp.components[:-1])


@dataclass
class CountReport:
    n: int
    strata: int
    closed: int
    pair_count: int
    strata_bound: int
    closed_bound: int
    strata_equal: bool
    closed_equal: bool


def verify_counts(s: StrataSet) -> CountReport:
    """Check the counting bounds and report equality or slack."""
    n = s.n
    bound = sum_n_psi_squared(n)
    closed_bound = n_psi(n, RootSubset.empty(n)) ** 2
    n_strata = len(s.records)
    n_closed = sum(1 for r in s.records if r.is_closed)
    if n_strata > bound:
        raise BoundViolated(f"{n_strata} strata exceed the bound {bound}")
    if n_closed > closed_bound:
        raise BoundViolated(f"{n_closed} closed strata exceed {closed_bound}")
    if s.pair_count > bound:
        raise BoundViolated(f"{s.pair_count} pairs exceed the bound {bound}")
    return CountReport(n, n_strata, n_closed, s.pair_count, bound, closed_bound,
                       n_strata == bound, n_closed == closed_bound)


def summary_line(s: StrataSet, rep: Optional[CountReport] = None) -> str:
    """The one-line summary; rep is verify_counts(s) when already made."""
    if rep is None:
        rep = verify_counts(s)
    return (f"strata={rep.strata} closed={rep.closed} "
            f"bound={rep.strata_bound} generic={str(s.is_generic).lower()}")
