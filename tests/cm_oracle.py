"""The numeric spot check of the per-place sine identity that
forms.cm_obstruction_check proves exactly, kept as a test oracle, and the
field's complex conjugation, which the identity's field-arithmetic form
reads.

At place v the identity reads det(gamma, delta)_v^2 d_v = Im(w1 conj w2)^2,
where w1 and w2 are the form's two factor values at v.  The oracle encloses
both sides in certified interval embeddings; it reads nothing of the exact
batched kernel that the check runs.
"""

from fractions import Fraction

from torusorbits.intervals import CBox
from torusorbits.numfield import split_cm


def cm_conjugate(K, cm, x):
    """The complex conjugation automorphism gamma + s delta -> gamma - s delta,
    that is 2 gamma - x.

    For a CM field this automorphism commutes with every embedding into the
    complex numbers, so conj(sigma(x)) = sigma(cm_conjugate(x)) exactly."""
    gamma, _ = split_cm(K, cm, x)
    return K.element([2 * g - c for g, c in zip(gamma.coeffs, x.coeffs)])


def sine_identity_enclosure(field, form, z, width=Fraction(1, 2 ** 64)):
    """Certified numeric enclosure of the per-place sine identity that
    cm_obstruction_check verifies exactly.

    Returns the worst residual-interval width across places, or None if an
    enclosure excludes zero (which would falsify the identity)."""
    cm = field.cm_structure
    g1, d1 = split_cm(field, cm, z[0])
    g2, d2 = split_cm(field, cm, z[1])
    det_gd = g1 * d2 - g2 * d1
    places = field.places()
    worst = 0.0
    for v in range(form.r):
        pl = places[v]
        demb = field.embed(det_gd, pl, max_width=width)
        dval = field.embed(cm.d, pl, max_width=width)
        w1 = field.embed(form.factor_value(v, 0, z), pl, max_width=width)
        w2 = field.embed(form.factor_value(v, 1, z), pl, max_width=width)
        cross = w1 * CBox(w2.re, -w2.im)
        det_sq = (demb.re if hasattr(demb, "re") else demb).square()
        d_re = dval.re if hasattr(dval, "re") else dval
        diff = det_sq * d_re - cross.im.square()
        if not diff.contains(0):
            return None
        worst = max(worst, float(diff.width))
    return worst
