#!/usr/bin/env python3
"""Systole traces along torus paths: divergence versus boundedness.

The systole (minimum lattice product norm over a height box) stays bounded
below exactly when the quotient sits in the right cell and the two places
balance; break either condition and the trace decays geometrically.  A
divergent direction drifts into a smaller orbit, whose exact representative
the stratification's table gives.
"""

from fractions import Fraction

from torusorbits import decomp as dc
from torusorbits import dynamics as dy
from torusorbits import numfield as nf
from torusorbits import rootdata as rd
from torusorbits import strata as st

K = nf.create_field([-2, 0, 1], declared_units=[[1, 1]], label="q-sqrt2")
i2 = dc.MatrixK.identity(K, 2)

# a bounded configuration: membership holds and the path is balanced
h = dc.unipotent_matrix(K, 2, {(1, 0): K.one}) * \
    dc.diagonal_matrix(K, [K.element([2]), K.element([Fraction(1, 2)])])
N = 14


def path(s_rate, t_rate):
    return dy.TorusPath(2, (Fraction(2), Fraction(2)),
                        (tuple((s_rate * k,) for k in range(N)),
                         tuple((t_rate * k,) for k in range(N))))


for name, p in (("balanced", path(1, -1)), ("unbalanced", path(2, -1))):
    rep = dy.check_boundedness(h, i2, rd.RootSubset.empty(2), p,
                               C=Fraction(4), height=10)
    print(f"\n{name}: membership={rep.membership} "
          f"products_bounded={rep.products_bounded} "
          f"verdict={rep.trace.verdict}")
    vals = [f"{s.value:.2e}" for s in rep.trace.steps[::3]]
    print("  systole every 3rd step:", " ".join(vals))

# the limit of a divergent direction is a specific smaller orbit
g1 = dc.MatrixK.from_rational_rows(K, [[1, 1], [1, 2]])
inp = st.OrbitInput((g1, i2))
e = rd.identity_weyl(2)
rep_pt = dy.predicted_limit(inp, rd.RootSubset.empty(2), e, e)
print("\npredicted limit representative (Borel pair at the identity cosets):")
print("  ", rep_pt[0], "|", rep_pt[1])
