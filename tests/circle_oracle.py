"""The modulus-one test that numfield.modulus_is_one ran before it decided
from Mahler's separation bound, kept as a test oracle.

|z| = 1 iff 1/z equals conj(z), and both are roots of chi, the squarefree
part of the characteristic polynomial of x (or of its reverse).  The oracle
isolates every root of chi with polyutil.root_regions, a second isolation
beside the field's own, and decides whether the boxes of 1/z and conj(z)
meet the same root's region.  It reads no separation bound.  At large
heights the root approximations stop converging, and it raises
PrecisionExhausted where the library decides.
"""

from torusorbits import numfield as nf
from torusorbits import polyutil as pu
from torusorbits.intervals import CBox


def root_matching_modulus_is_one(K, x, place) -> bool:
    if x.is_zero():
        return False
    chi = nf._squarefree_part(nf._charpoly(K, x))
    if pu.degree(pu.pgcd(chi, pu.poly(reversed(chi)))) == 0:
        return False  # no root of chi has its inverse among the roots
    for bits in K._ladder(max(96, place.working_precision)):
        box = K._evaluate(x, place.index, bits)
        msq = box.modulus_sq()
        if not msq.contains(1):
            return False
        try:
            inv_box = CBox(box.re / msq, -(box.im / msq))  # 1/z = conj z / |z|^2
        except ZeroDivisionError:
            continue
        reals, boxes = pu.root_regions(chi, bits)
        regions = [CBox(r, 0) for r in reals] + [
            c for b in boxes for c in (b, CBox(b.re, -b.im))]
        conj_box = CBox(box.re, -box.im)
        hit_inv = [i for i, reg in enumerate(regions) if reg.overlaps(inv_box)]
        hit_conj = [i for i, reg in enumerate(regions) if reg.overlaps(conj_box)]
        if len(hit_inv) == 1 and len(hit_conj) == 1:
            return hit_inv == hit_conj
