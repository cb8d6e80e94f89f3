#!/usr/bin/env python3
"""The CM integrality obstruction: why density fails over CM fields.

Over K = Q(zeta_8) = Q(sqrt 2)(i) every value point of a binary form with
subfield coefficients lands in one of two branches: a norm product pinned
to a discrete ladder (1/l^8) N, or a ray through a fixed complex scalar.
Nothing escapes; density is structurally impossible.
"""

from fractions import Fraction

import numpy as np

from torusorbits import forms as fm
from torusorbits import numfield as nf

K8 = nf.create_field(
    [1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]], label="q-zeta8",
    cm_structure=dict(subfield_poly=[-2, 0, 1], subfield_gen=[0, 1, 0, -1],
                      d=[1, 0, 0, 0], relative_gen=[0, 0, 1, 0]))
print("CM field:", nf.is_cm(K8))
print("index of the split order verified (l = 2):",
      fm.verify_suborder_index(K8, 2))

# an element splits exactly as gamma + sqrt(-d) delta over F = Q(sqrt 2)
cm = K8.cm_structure
z = K8.element([1, 2, 3, 4])
g, d = nf.split_cm(K8, cm, z)
print(f"\nsplit of 1+2t+3t^2+4t^3: gamma = {g.as_str()}, delta = {d.as_str()}")
print("recomposes:", g + cm.relative_gen * d == z)

f0 = fm.make_form(K8, [[[1, 0], [0, 1]]] * 2)
scan = fm.scan_values(f0, 6, sample=1500, seed=2)
rep = fm.cm_obstruction_check(f0, scan, index_l=2)
branches = {}
for p in rep.points:
    branches[p.branch] = branches.get(p.branch, 0) + 1
print(f"\nchecked {rep.checked} points: violations {len(rep.violations)}, "
      f"branches {branches}")
print(f"the discrete ladder constant: C = {rep.constant}")
prods = sorted({p.norm_product for p in rep.points
                if p.branch == 'norm-product'})[:8]
print("smallest norm products seen:", [str(v) for v in prods])
print("all lie in (1/256) N:",
      all((v * 256).denominator == 1 for v in prods))

# a ray point: delta proportional to gamma
rg = cm.relative_gen
sqrt2 = K8.element([0, 1, 0, -1])
ray = np.array([list((K8.one + rg * K8.from_rational(3)).coeffs)
                + list((sqrt2 + rg * (K8.from_rational(3) * sqrt2)).coeffs)],
               dtype=np.int64)
ray_scan = fm.FormScan(f0, 10, ray, "full")
ray_rep = fm.cm_obstruction_check(f0, ray_scan, index_l=2)
print(f"\nengineered ray point: branch {ray_rep.points[0].branch}, "
      f"scalar a = {ray_rep.points[0].ray_scalar}")
