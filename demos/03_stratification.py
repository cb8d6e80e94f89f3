#!/usr/bin/env python3
"""The finite stratification of a torus orbit closure at two places.

A generic input realizes every parabolic pair (the counting bound with
equality); special inputs drop pairs; monomial quotients collapse to a
single closed orbit.  The closure poset prints as DOT for graph tooling.
"""

from fractions import Fraction

from torusorbits import decomp as dc
from torusorbits import numfield as nf
from torusorbits import rootdata as rd
from torusorbits import strata as st

K = nf.create_field([-2, 0, 1], declared_units=[[1, 1]], label="q-sqrt2")
i2 = dc.MatrixK.identity(K, 2)
i3 = dc.MatrixK.identity(K, 3)

# generic SL_2: five orbits, four of them closed
g1 = dc.MatrixK.from_rational_rows(K, [[1, 1], [1, 2]])
s = st.enumerate_strata(g1, i2)
print("generic SL_2:", st.summary_line(s))
edges = st.closure_poset(s)
for i, rec in enumerate(s.records):
    tags = []
    if rec.is_top:
        tags.append("top")
    if rec.is_closed:
        tags.append("closed")
    p = rec.pair
    print(f"  record {i}: subset {p.subset} w1={p.witnesses[0]} "
          f"w2={p.witnesses[1]} {' '.join(tags)}")
print("  poset edges (closure contains):", edges)

# a unipotent quotient misses exactly one Borel pair
gu = dc.MatrixK.from_rational_rows(K, [[1, 1], [0, 1]])
su = st.enumerate_strata(gu, i2)
print("\nunipotent SL_2:", st.summary_line(su))

# a monomial quotient: the orbit is closed and is its own closure
w0 = rd.longest_element(2).matrix(K)
sm = st.enumerate_strata(w0 * g1, g1)
print("monomial quotient:", st.summary_line(sm),
      f"(pairs merged: {sm.pair_count} -> {len(sm.records)} records)")
print("is_orbit_closed:", st.is_orbit_closed(sm.input))

# generic SL_3 fills the bound 36 + 9 + 9 + 1 = 55 with 36 closed orbits
g3 = dc.MatrixK.from_rational_rows(
    K, [[Fraction(1, 2)] * 3, [1, 2, 4], [1, 3, 9]])
s3 = st.enumerate_strata(g3, i3)
rep = st.verify_counts(s3)
print(f"\ngeneric SL_3: {rep.strata}/{rep.strata_bound} strata, "
      f"{rep.closed}/{rep.closed_bound} closed, "
      f"generic={s3.is_generic}")

# DOT export of the small poset
print("\nDOT of the generic SL_2 closure poset:")
from torusorbits.cli import _poset_dot
print(_poset_dot(s, edges))
