#!/usr/bin/env python3
"""Number fields, certified places, and what the unit group closes up to.

Three fields tell three different stories at their first completion:
a real quadratic field projects its units discretely, a totally real cubic
fills the positive ray, and a mixed quartic wraps the unit circle.
"""

from fractions import Fraction

from torusorbits import numfield as nf

# Q(sqrt 2) with its fundamental unit 1 + sqrt 2
K = nf.create_field([-2, 0, 1], declared_units=[[1, 1]], label="q-sqrt2")
print(f"{K.label}: degree {K.degree}, signature {K.signature}, "
      f"unit rank {K.unit_rank}")
for p in K.places():
    print(f"  place {p.index}: {p.kind} at {p.approx():+.6f}")

u = K.units[0]
print(f"norm of the unit: {nf.field_norm(u)}")
plus = next(p for p in K.places() if p.approx() > 0)
enc = K.normalized_abs(u, plus)
print(f"|1+sqrt2| at the positive place: {float(enc.mid):.8f} "
      f"(enclosure width {float(enc.width):.1e})")

# the product over all places of the normalized absolute values encloses
# the norm: exact arithmetic meets certified numerics
x = K.element([3, 2])
prod = None
for p in K.places():
    e = K.normalized_abs(x, p, max_width=Fraction(1, 2 ** 80))
    prod = e if prod is None else prod * e
print(f"product formula for 3+2*sqrt2: product encloses |N| = "
      f"{abs(nf.field_norm(x))}: {prod.contains(abs(nf.field_norm(x)))}")

# closure classifications
print("\nunit closure at the first completion:")
print(f"  {K.label}: {nf.unit_closure_classify(K, 0).classification}")

K3 = nf.create_field([-1, -3, 0, 1], declared_units=[[0, 1, 0], [-2, 0, 1]],
                     label="cyclic-cubic")
rep3 = nf.unit_closure_classify(K3, 0)
print(f"  {K3.label}: {rep3.classification} "
      f"(ray gap statistic {rep3.gap_statistic:.2e})")

K4 = nf.create_field([1, -2, 1, -2, 1],
                     declared_units=[[0, 1, 0, 0], [2, 0, 2, -1]],
                     label="circle-quartic")
idx = next(p.index for p in K4.places() if not p.is_real)
rep4 = nf.unit_closure_classify(K4, idx)
print(f"  {K4.label} (complex place): {rep4.classification}")
print(f"    evidence: theta has modulus exactly one there: "
      f"{nf.modulus_is_one(K4, K4.theta, K4.places()[idx])}")
