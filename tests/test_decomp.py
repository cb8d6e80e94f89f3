import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from torusorbits import decomp as dc
from torusorbits import dynamics as dy
from torusorbits import rootdata as rd
from torusorbits import numfield as nf
from torusorbits.errors import (InvariantViolation, Singular, TooLarge,
                                ValidationError)

from conftest import (echelon_bruhat_cell, elimination_block_ldu,
                      elimination_genericity, genericity_check, random_element,
                      random_sl, weyl_compose, weyl_stabilizer,
                      weyl_untranslate)


# -- independent oracles -------------------------------------------------------

def det_cofactor(field, rows):
    """Cofactor-expansion determinant: independent of the elimination path."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = field.zero
    for j in range(n):
        minor = [[rows[i][c] for c in range(n) if c != j]
                 for i in range(1, n)]
        term = rows[0][j] * det_cofactor(field, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def oracle_membership(h, subset, w1, w2):
    """Boundary-minor criterion via cofactor determinants: membership in the
    translated cell holds iff every leading principal minor of w1^-1 h w2 at
    a block boundary is nonzero."""
    f = h.field
    m = w1.matrix(f).inverse() * h * w2.matrix(f)
    cut = 0
    for b in subset.composition[:-1]:
        cut += b
        sub = [[m.rows[i][j] for j in range(cut)] for i in range(cut)]
        if det_cofactor(f, sub).is_zero():
            return False
    return True


def oracle_bruhat(h):
    """Greedy leftmost-pivot elimination: row i minus combinations of the
    rows above lands on a staircase whose pivot columns read off the cell."""
    f = h.field
    n = h.n
    a = [list(r) for r in h.rows]
    pivcol = [None] * n
    used = set()
    for i in range(n):
        # eliminate along columns already pivoted by earlier rows
        for i0 in range(i):
            c0 = pivcol[i0]
            if not a[i][c0].is_zero():
                fct = a[i][c0] / a[i0][c0]
                a[i] = [x - fct * y for x, y in zip(a[i], a[i0])]
        for c in range(n):
            if not a[i][c].is_zero():
                pivcol[i] = c
                break
        used.add(pivcol[i])
    assert used == set(range(n))
    perm = [0] * n
    for i, c in enumerate(pivcol):
        perm[c] = i
    return rd.WeylElement(tuple(perm))


# -- matrix basics ----------------------------------------------------------------

def test_mat_ops(Ksqrt2):
    a = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]])
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    assert i2 * a == a
    assert a.det() == Ksqrt2.one
    u = dc.unipotent_matrix(Ksqrt2, 2, {(0, 1): Ksqrt2.theta})
    assert u.inverse() == dc.unipotent_matrix(Ksqrt2, 2,
                                                {(0, 1): -Ksqrt2.theta})
    with pytest.raises(Singular):
        dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 1]]).inverse()


def test_public_constructor_validates(Ksqrt2, Kzeta8):
    """MatrixK(field, rows) refuses an entry of another field and a row list
    that is not square."""
    with pytest.raises(ValidationError):
        dc.MatrixK(Ksqrt2, [[Ksqrt2.one, Kzeta8.one], [Ksqrt2.zero,
                                                       Ksqrt2.one]])
    with pytest.raises(ValidationError):
        dc.MatrixK(Ksqrt2, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValidationError):
        dc.MatrixK(Ksqrt2, [[1, 0], [0]])


def test_inverse_roundtrip_random(Ksqrt2):
    rng = random.Random(11)
    i3 = dc.MatrixK.identity(Ksqrt2, 3)
    for _ in range(20):
        g = random_sl(Ksqrt2, 3, rng)
        assert g * g.inverse() == i3
        assert g.det() == Ksqrt2.one


# -- block LDU ---------------------------------------------------------------------

def test_block_ldu_generic_2x2(Ksqrt2):
    h = dc.MatrixK.from_rational_rows(Ksqrt2, [[2, 3], [1, 2]])
    dec = dc.block_ldu(h, rd.RootSubset.empty(2))
    assert dec.v_minus == dc.unipotent_matrix(Ksqrt2, 2,
                                              {(1, 0): Ksqrt2.from_rational(Fraction(1, 2))})
    assert dec.levi.rows[0][0] == Ksqrt2.from_rational(2)
    assert dec.levi.rows[1][1] == Ksqrt2.from_rational(Fraction(1, 2))
    assert dec.v_plus == dc.unipotent_matrix(Ksqrt2, 2,
                                             {(0, 1): Ksqrt2.from_rational(Fraction(3, 2))})


def test_block_ldu_absent(Ksqrt2):
    h = dc.MatrixK.from_rational_rows(Ksqrt2, [[0, 1], [-1, 0]])
    assert dc.block_ldu(h, rd.RootSubset.empty(2)) is None


def test_block_ldu_triple_identity(Ksqrt2):
    # u^-(b) u^+(a) = d u^+(a1) u^-(b1) with a1 = (1+ab)a, b1 = (1+ab)^-1 b
    rng = random.Random(7)
    checked = 0
    while checked < 30:
        a = random_element(Ksqrt2, rng)
        b = random_element(Ksqrt2, rng)
        w = Ksqrt2.one + a * b
        if w.is_zero():
            continue
        lhs = dc.unipotent_matrix(Ksqrt2, 2, {(1, 0): b}) * \
            dc.unipotent_matrix(Ksqrt2, 2, {(0, 1): a})
        d = dc.diagonal_matrix(Ksqrt2, [w.inverse(), w])
        rhs = d * dc.unipotent_matrix(Ksqrt2, 2, {(0, 1): w * a}) * \
            dc.unipotent_matrix(Ksqrt2, 2, {(1, 0): w.inverse() * b})
        assert lhs == rhs
        dec = dc.block_ldu(lhs, rd.RootSubset.empty(2))
        assert dec.v_minus == dc.unipotent_matrix(Ksqrt2, 2, {(1, 0): b})
        assert dec.levi == dc.MatrixK.identity(Ksqrt2, 2)
        assert dec.v_plus == dc.unipotent_matrix(Ksqrt2, 2, {(0, 1): a})
        checked += 1


def test_block_ldu_roundtrip_random(Ksqrt2):
    rng = random.Random(13)
    subsets = rd.all_subsets(3)
    done = 0
    tried = 0
    while done < 200 and tried < 2000:
        tried += 1
        h = random_sl(Ksqrt2, 3, rng)
        subset = rng.choice(subsets)
        dec = dc.block_ldu(h, subset)
        if dec is None:
            continue
        assert dec.recompose() == h
        # pattern shape
        blk = subset.block_of()
        for i in range(3):
            for j in range(3):
                if blk[i] <= blk[j] and i != j:
                    assert dec.v_minus.rows[i][j].is_zero() or blk[i] == blk[j]
                if blk[i] != blk[j]:
                    assert dec.levi.rows[i][j].is_zero()
        done += 1
    assert done == 200


def test_block_ldu_unique(Ksqrt2):
    # two factorizations of the same matrix for the same subset agree
    rng = random.Random(17)
    e3 = rd.RootSubset.empty(3)
    for _ in range(20):
        h = random_sl(Ksqrt2, 3, rng)
        d1 = dc.block_ldu(h, e3)
        d2 = dc.block_ldu(h * dc.MatrixK.identity(Ksqrt2, 3), e3)
        if d1 is None:
            assert d2 is None
            continue
        assert d1.v_minus == d2.v_minus
        assert d1.levi == d2.levi
        assert d1.v_plus == d2.v_plus


def test_block_ldu_recomposition_check_raises(Ksqrt2):
    # a wrong cached ratio (the first with a nonzero divisor, v^+[0, 1],
    # doubled) leaves v^- (z v^+) != h, and the factorization must refuse
    # to return it; with v^-[1, 0] = 0 only the first block's entries,
    # compared as ids, see it
    empty = rd.RootSubset.empty(2)
    e = rd.identity_weyl(2)
    for rows in ([[2, 3], [1, 2]], [[2, 3], [0, Fraction(1, 2)]]):
        h = dc.MatrixK.from_rational_rows(Ksqrt2, rows)
        table = dc.MinorTable(h)
        assert table.ldu(empty, e, e) == dc.block_ldu(h, empty)
        key = next(k for k in table._ratios if k[2])
        ratio = table.values[table._ratios[key]]
        table._ratios[key] = table.id(ratio + ratio)
        with pytest.raises(InvariantViolation):
            table.ldu(empty, e, e)


def test_minor_table_refuses_above_its_cap(Ksqrt2, monkeypatch):
    # n = 11 raises before any minor is formed: not one NumberField.dot
    big = dc.MatrixK.identity(Ksqrt2, dc.MINOR_TABLE_CAP + 1)
    calls = []
    dot = nf.NumberField.dot
    monkeypatch.setattr(nf.NumberField, "dot",
                        lambda self, xs, ys: calls.append(1) or dot(self, xs, ys))
    for build in (dc.MinorTable, dc.bruhat_cell,
                  lambda h: dc.block_ldu(h, rd.RootSubset.empty(h.n))):
        with pytest.raises(TooLarge):
            build(big)
    assert calls == []
    table = dc.MinorTable(dc.MatrixK.identity(Ksqrt2, dc.MINOR_TABLE_CAP))
    assert table.minor(3, 3) == Ksqrt2.one and calls


def test_block_ldu_recomposition_check_under_optimize():
    # the same check in a `python -O` process, where an assert would vanish
    code = textwrap.dedent("""
        import sys
        from torusorbits import decomp as dc, numfield as nf, rootdata as rd
        from torusorbits.errors import InvariantViolation
        K = nf.create_field([-2, 0, 1], declared_units=[[1, 1]])
        h = dc.MatrixK.from_rational_rows(K, [[2, 3], [1, 2]])
        e = rd.identity_weyl(2)
        table = dc.MinorTable(h)
        table.ldu(rd.RootSubset.empty(2), e, e)
        key = next(k for k in table._ratios if k[2])
        ratio = table.values[table._ratios[key]]
        table._ratios[key] = table.id(ratio + ratio)
        try:
            table.ldu(rd.RootSubset.empty(2), e, e)
        except InvariantViolation:
            print("raised", sys.flags.optimize)
    """)
    src = str(Path(dc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "1"]


# -- the minors table against the elimination oracles --------------------------

def _field_element(draw, K):
    """Zero half the time, so that entries and minors vanish."""
    if draw(hs.booleans()):
        return K.zero
    return K.element(draw(hs.lists(hs.fractions(-3, 3, max_denominator=3),
                                   min_size=1, max_size=K.degree)))


@hs.composite
def table_inputs(draw, fields, n_max):
    """(h, weyl): h = L w U d in SL_n over one of the fields, with unipotent
    L and U whose entries are often zero, or a singular h with a repeated
    row; weyl gives the Weyl elements to try per subset, all of them below
    n = 4 and the coset representatives at n = 4."""
    K = draw(hs.sampled_from(fields))
    n = draw(hs.integers(2, n_max))
    lower = {(i, j): _field_element(draw, K)
             for i in range(n) for j in range(i)}
    upper = {(i, j): _field_element(draw, K)
             for i in range(n) for j in range(i + 1, n)}
    w = draw(hs.sampled_from(rd.all_weyl(n)))
    e = draw(hs.integers(-2, 2))
    d = dc.diagonal_matrix(K, [K.theta ** e] + [K.one] * (n - 2)
                           + [K.theta ** -e])
    h = (dc.unipotent_matrix(K, n, lower) * w.matrix(K)
         * dc.unipotent_matrix(K, n, upper) * d)
    if draw(hs.integers(0, 4)) == 0:
        h = dc.MatrixK(K, h.rows[:-1] + (h.rows[0],))
    if n < 4:
        return h, lambda subset: rd.all_weyl(n)
    return h, lambda subset: rd.coset_representatives(n, subset)


@settings(max_examples=12, deadline=None)
@given(data=hs.data())
def test_minor_table_matches_elimination(Ksqrt2, Kzeta8, Kzeta16, data):
    # presence and all four factors, on every subset and Weyl pair
    h, weyl = data.draw(table_inputs([Ksqrt2, Kzeta8, Kzeta16], 4))
    singular = h.det().is_zero()
    table = dc.MinorTable(h)
    for subset in rd.all_subsets(h.n):
        for w1 in weyl(subset):
            for w2 in weyl(subset):
                got = table.ldu(subset, w1, w2)
                want = elimination_block_ldu(weyl_untranslate(w1, h, w2),
                                             subset)
                assert table.present(subset, w1, w2) is (want is not None)
                if want is None:
                    assert got is None
                    continue
                assert not singular
                assert (got.v_minus, got.levi, got.v_plus) == \
                    (want.v_minus, want.levi, want.v_plus)


@settings(max_examples=30, deadline=None)
@given(data=hs.data())
def test_minor_table_cell_and_genericity(Ksqrt2, Kzeta8, Kzeta16, data):
    # the Bruhat cell against the echelon rank profile, and genericity
    # against one elimination per Borel pair
    h, _ = data.draw(table_inputs([Ksqrt2, Kzeta8, Kzeta16], 3))
    assert genericity_check(h) is elimination_genericity(h)
    if h.det().is_zero():
        with pytest.raises(Singular):
            dc.bruhat_cell(h)
    else:
        assert dc.bruhat_cell(h) == echelon_bruhat_cell(h)


@settings(max_examples=30, deadline=None)
@given(data=hs.data())
def test_boundedness_membership_is_the_block_ldu(Ksqrt2, Kzeta8, Kzeta16,
                                                 data):
    # check_boundedness reads criterion (i) from the boundary minors; on
    # SL2 and SL3 inputs and every subset it is the block LDU's existence
    h, _ = data.draw(table_inputs([Ksqrt2, Kzeta8, Kzeta16], 3))
    assume(not h.det().is_zero())
    n, steps = h.n, range(4)
    trace = dy.SystoleTrace([], 1, "inconclusive", 0.0, 0.0)
    with mock.patch.object(dy, "run_path", return_value=trace):
        for subset in rd.all_subsets(n):
            # the second place decays off the subset and stays put on it
            path = dy.TorusPath(n, (Fraction(2), Fraction(2)), (
                tuple((0,) * (n - 1) for _ in steps),
                tuple(tuple(0 if i in subset.simples else -k
                            for i in range(1, n)) for k in steps)))
            rep = dy.check_boundedness(h, dc.MatrixK.identity(h.field, n),
                                       subset, path, C=Fraction(4))
            assert rep.membership is (dc.block_ldu(h, subset) is not None)


def test_minor_table_generic_sl4(Ksqrt2):
    # a dense input, where no minor vanishes
    h = dc.MatrixK.from_rational_rows(
        Ksqrt2, [[Fraction(1, 12)] * 4, [1, 2, 4, 8], [1, 3, 9, 27],
                 [1, 4, 16, 64]])
    assert genericity_check(h) is elimination_genericity(h) is True
    assert dc.bruhat_cell(h) == echelon_bruhat_cell(h)


# -- Weyl action ---------------------------------------------------------------------

def test_weyl_action_matches_matrix_products(Ksqrt2):
    # the signed row and column permutations equal the products with the
    # det-one monomial representatives, for every Weyl element up to n = 4
    rng = random.Random(19)
    for n in (2, 3, 4):
        ws = rd.all_weyl(n)
        for w in ws:
            x = dc.MatrixK(Ksqrt2, [[random_element(Ksqrt2, rng)
                                     for _ in range(n)] for _ in range(n)])
            v = rng.choice(ws)
            mw, mv = w.matrix(Ksqrt2), v.matrix(Ksqrt2)
            table = dc.MinorTable(x)
            ids = [table.id(e) for row in x.rows for e in row]
            assert table.matrix(table.translate(w, ids, v)) == \
                mw * x * mv.inverse()
            assert table.matrix(table.translate(v, ids, w)) == \
                mv * x * mw.inverse()


# -- Bruhat cell --------------------------------------------------------------------

def test_bruhat_cell_examples(Ksqrt2):
    assert dc.bruhat_cell(dc.MatrixK.identity(Ksqrt2, 3)) == rd.identity_weyl(3)
    anti = dc.MatrixK.from_rational_rows(Ksqrt2,
                                         [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert dc.bruhat_cell(anti).perm == rd.longest_element(3).perm
    h = dc.MatrixK.from_rational_rows(Ksqrt2, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert dc.bruhat_cell(h).perm == (1, 0, 2)


def test_bruhat_cell_oracle(Ksqrt2):
    rng = random.Random(19)
    for n in (2, 3, 4):
        for _ in range(40):
            h = random_sl(Ksqrt2, n, rng)
            assert dc.bruhat_cell(h).perm == oracle_bruhat(h).perm


def test_bruhat_cell_cell_consistency(Ksqrt2):
    # h in V^- . w . B exactly for the reported w: rebuild and compare
    rng = random.Random(23)
    for _ in range(25):
        h = random_sl(Ksqrt2, 3, rng)
        w = dc.bruhat_cell(h)
        # multiply through a random lower-unipotent and upper-triangular pair
        l = dc.unipotent_matrix(Ksqrt2, 3,
                                {(1, 0): random_element(Ksqrt2, rng),
                                 (2, 0): random_element(Ksqrt2, rng),
                                 (2, 1): random_element(Ksqrt2, rng)})
        u = dc.unipotent_matrix(Ksqrt2, 3,
                                {(0, 1): random_element(Ksqrt2, rng),
                                 (0, 2): random_element(Ksqrt2, rng),
                                 (1, 2): random_element(Ksqrt2, rng)})
        assert dc.bruhat_cell(l * h * u).perm == w.perm


# -- cell membership ----------------------------------------------------------------

def test_cell_membership_examples(Ksqrt2):
    e = rd.identity_weyl(2)
    s = rd.all_weyl(2)[1]
    empty = rd.RootSubset.empty(2)
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    assert dc.cell_membership(i2, rd.RootSubset.full(2), e, e)
    uni = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]])
    assert dc.cell_membership(uni, empty, s, e) is False
    gen = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]])
    for w1 in (e, s):
        for w2 in (e, s):
            assert dc.cell_membership(gen, empty, w1, w2)


def test_cell_membership_oracle(Ksqrt2):
    rng = random.Random(29)
    for n in (2, 3):
        weyl = rd.all_weyl(n)
        for _ in range(12):
            h = random_sl(Ksqrt2, n, rng)
            for subset in rd.all_subsets(n):
                for w1 in weyl:
                    for w2 in weyl:
                        assert dc.cell_membership(h, subset, w1, w2) == \
                            oracle_membership(h, subset, w1, w2)


def test_cell_membership_coset_invariance(Ksqrt2):
    rng = random.Random(31)
    for _ in range(6):
        h = random_sl(Ksqrt2, 3, rng)
        for subset in rd.all_subsets(3):
            stab = weyl_stabilizer(subset)
            reps = rd.coset_representatives(3, subset)
            for w1 in reps:
                for w2 in reps:
                    base = dc.cell_membership(h, subset, w1, w2)
                    for u1 in stab:
                        for u2 in stab:
                            assert dc.cell_membership(
                                h, subset, weyl_compose(w1, u1),
                                weyl_compose(w2, u2)) == base


def test_weyl_cell_criterion_combinatorial():
    # n in w0 W_subset iff conjugating the subset radical by w0 n lands in
    # the full upper unipotent group, as permutation position sets
    for size in (2, 3):
        w0 = rd.longest_element(size)
        for subset in rd.all_subsets(size):
            coset = {weyl_compose(w0, u).perm for u in weyl_stabilizer(subset)}
            vpos = rd.unipotent_positions(subset, +1)
            for n_el in rd.all_weyl(size):
                m = weyl_compose(w0, n_el)
                conj = {(m.perm[i], m.perm[j]) for (i, j) in vpos}
                upper = all(i < j for (i, j) in conj)
                assert (n_el.perm in coset) == upper
