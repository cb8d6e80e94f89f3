import hashlib
import random
from fractions import Fraction

import pytest

from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits.decomp import MatrixK, diagonal_matrix, unipotent_matrix


@pytest.fixture(scope="session")
def Ksqrt2():
    return nf.create_field([-2, 0, 1], declared_units=[[1, 1]], label="q-sqrt2")


@pytest.fixture(scope="session")
def Kcubic():
    # totally real cyclic cubic; theta and theta^2 - 2 are units
    return nf.create_field([-1, -3, 0, 1],
                           declared_units=[[0, 1, 0], [-2, 0, 1]],
                           label="cyclic-cubic")


@pytest.fixture(scope="session")
def Kgauss():
    return nf.create_field([1, 0, 1], label="q-i")


@pytest.fixture(scope="session")
def Kquartic():
    # x^4 - 2x^3 + x^2 - 2x + 1: two real embeddings, one conjugate pair;
    # units: theta (unit circle at the complex place) and theta + 1/theta
    return nf.create_field([1, -2, 1, -2, 1],
                           declared_units=[[0, 1, 0, 0], [2, 0, 2, -1]],
                           label="circle-quartic")


@pytest.fixture(scope="session")
def Kzeta8():
    # x^4 + 1 with the presentation K = F(sqrt(-1)), F = Q(sqrt 2)
    return nf.create_field(
        [1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]], label="q-zeta8",
        cm_structure=dict(subfield_poly=[-2, 0, 1], subfield_gen=[0, 1, 0, -1],
                          d=[1, 0, 0, 0], relative_gen=[0, 0, 1, 0]))


def random_element(K, rng, span=4, denom=3):
    return K.element([Fraction(rng.randint(-span, span),
                               rng.randint(1, denom))
                      for _ in range(K.degree)])


def random_sl(K, n, rng, steps=4):
    """Random SL_n(K) matrix as a product of elementary and monomial pieces."""
    from torusorbits.rootdata import all_weyl
    m = MatrixK.identity(K, n)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            m = m * unipotent_matrix(K, n, {(i, j): random_element(K, rng, 3, 2)})
        elif kind == 1:
            w = rng.choice(all_weyl(n))
            m = m * w.matrix(K)
        else:
            x = K.element([1, 1]) if K.degree == 2 else K.theta
            e = rng.randint(-2, 2)
            diag = [x ** e] + [K.one] * (n - 2) + [x ** (-e)]
            m = m * diagonal_matrix(K, diag)
    return m


def cubic_density_form(K):
    """Acceptance 9's non-rational binary form over the cyclic cubic."""
    half = K.from_rational(Fraction(1, 2))
    return fm.make_form(K, [
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
    ], scalars=[half] * 3)


CUBIC_WINDOW = ((-5.0, 5.0),) * 3


def window_scan_digest(scan, window, eps=0.25):
    """Shape, sha256 of the point array and of the degenerate mask, and the
    density counts of a window scan, as JSON data."""
    rep = fm.density_report(scan, window=window, eps=eps)
    return {"shape": list(scan.points.shape),
            "points_sha256": hashlib.sha256(scan.points.tobytes()).hexdigest(),
            "degenerate_sha256":
                hashlib.sha256(scan.degenerate.tobytes()).hexdigest(),
            "cells_hit": rep.cells_hit,
            "points_in_window": rep.points_in_window}
