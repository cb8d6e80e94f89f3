import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from torusorbits import decomp as dc
from torusorbits import numfield as nf
from torusorbits import rootdata as rd
from torusorbits import strata as st
from torusorbits.errors import InvariantViolation, TooLarge, ValidationError

from conftest import (all_pairs_poset, fieldelement_ldu, fieldelement_strata,
                      generic_sl, genericity_check, random_sl, strata_summary,
                      weyl_compose, weyl_stabilizer)


def top_index(s):
    """The index of the record that carries the full subset's pair."""
    return next(i for i, rec in enumerate(s.records) if rec.is_top)


def generic_sl2(K):
    return dc.MatrixK.from_rational_rows(K, [[1, 1], [1, 2]])


def generic_sl3(K):
    return dc.MatrixK.from_rational_rows(
        K, [[Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)],
            [1, 2, 4], [1, 3, 9]])


# -- independent oracles -------------------------------------------------------

def textbook_representative(pair, g1, g2):
    """(m1 (v^-)^{-1} m1^{-1} g1, m2 v^+ m2^{-1} g2) with the monomial
    matrices m1, m2 of the witnesses and matrix inverses throughout."""
    f = g1.field
    w1, w2 = pair.witnesses
    m1, m2 = w1.matrix(f), w2.matrix(f)
    dec = dc.block_ldu(m1.inverse() * g1 * g2.inverse() * m2, pair.subset)
    return (m1 * dec.v_minus.inverse() * m1.inverse() * g1,
            m2 * dec.v_plus * m2.inverse() * g2)


def poset_oracle(s):
    """Closure poset edges and closed flags by brute force on position
    sets: the full record order, its O(m^3) transitive reduction, and
    minimality of each pair against every other pair."""
    def inside(q, p):
        return (q.first.positions <= p.first.positions
                and q.second.positions <= p.second.positions
                and (q.first.positions, q.second.positions)
                != (p.first.positions, p.second.positions))

    recs = s.records
    m = len(recs)
    full = [[i != j and any(inside(pj, pi) for pi in recs[i].pairs
                            for pj in recs[j].pairs)
             for j in range(m)] for i in range(m)]
    edges = [(i, j) for i in range(m) for j in range(m) if full[i][j]
             and not any(full[i][k] and full[k][j] for k in range(m))]
    pairs = s.all_pairs()
    closed = [any(not any(inside(q, p) for q in pairs) for p in rec.pairs)
              for rec in recs]
    return edges, closed


@pytest.fixture(scope="module")
def unipotent_sl4(Ksqrt2):
    """The non-generic unipotent SL4 quotient, moved off g2 = identity."""
    g2 = random_sl(Ksqrt2, 4, random.Random(67), steps=5)
    u = dc.unipotent_matrix(Ksqrt2, 4, {(1, 0): Ksqrt2.one,
                                        (2, 1): Ksqrt2.theta,
                                        (3, 2): Ksqrt2.one})
    return u * g2, g2, st.enumerate_strata(u * g2, g2)


def test_enumerate_generic_sl2(Ksqrt2):
    s = st.enumerate_strata(generic_sl2(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 2))
    assert len(s.records) == 5
    assert sum(1 for r in s.records if r.is_closed) == 4
    assert s.records[top_index(s)].representative == \
        (generic_sl2(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 2))


def test_enumerate_unipotent_sl2(Ksqrt2):
    g1 = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]])
    s = st.enumerate_strata(g1, dc.MatrixK.identity(Ksqrt2, 2))
    assert len(s.records) == 4
    # the missing Borel pair is (s, e)
    e = rd.identity_weyl(2)
    sperm = rd.all_weyl(2)[1]
    wits = {(p.witnesses[0].perm, p.witnesses[1].perm)
            for r in s.records for p in r.pairs if not p.subset.simples}
    assert (sperm.perm, e.perm) not in wits
    assert len(wits) == 3


def test_enumerate_identity_all_standard_cells(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    s = st.enumerate_strata(i2, i2)
    # the identity sits in the big cell of every standard pair; those pairs
    # share the representative (e, e), so the records merge into one
    assert len(s.records) == 1
    assert s.pair_count == 3
    wits = {(p.witnesses[0].perm, p.witnesses[1].perm)
            for p in s.records[0].pairs if not p.subset.simples}
    assert wits == {((0, 1), (0, 1)), ((1, 0), (1, 0))}


def test_closure_poset_generic_sl2(Ksqrt2):
    s = st.enumerate_strata(generic_sl2(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 2))
    edges = st.closure_poset(s)
    top = top_index(s)
    assert len(edges) == 4
    assert all(i == top for (i, j) in edges)
    assert all(j != top for (i, j) in edges)


def test_closure_poset_single_record(Ksqrt2):
    w0m = rd.longest_element(2).matrix(Ksqrt2)
    q = generic_sl2(Ksqrt2)
    s = st.enumerate_strata(w0m * q, q)
    assert len(s.records) == 1
    assert st.closure_poset(s) == []
    assert s.records[0].is_top and s.records[0].is_closed


def test_closure_poset_generic_sl3(Ksqrt2):
    s = st.enumerate_strata(generic_sl3(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 3))
    assert len(s.records) == 55
    minimal = [r for r in s.records if r.is_closed]
    assert len(minimal) == 36
    edges = st.closure_poset(s)
    top = top_index(s)
    assert all(j != top for (i, j) in edges)
    # every non-top record is reachable from the top through the reduction
    reach = {top}
    frontier = [top]
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
    while frontier:
        cur = frontier.pop()
        for nxt in adj.get(cur, []):
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    assert reach == set(range(len(s.records)))


def test_closed_strata(Ksqrt2):
    s = st.enumerate_strata(generic_sl2(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 2))
    closed = st.closed_strata(s)
    assert len(closed) == 4
    assert all(not rec.pair.subset.simples for rec in closed)
    s3 = st.enumerate_strata(generic_sl3(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 3))
    assert len(st.closed_strata(s3)) == 36


def test_is_orbit_closed(Ksqrt2):
    rng = random.Random(41)
    q = random_sl(Ksqrt2, 2, rng)
    w0m = rd.longest_element(2).matrix(Ksqrt2)
    assert st.is_orbit_closed(st.OrbitInput((w0m * q, q))) is True
    g1 = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]])
    assert st.is_orbit_closed(st.OrbitInput((g1, dc.MatrixK.identity(Ksqrt2, 2)))) is False
    # three components: one monomial quotient, one not
    mono = w0m * q
    other = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]]) * q
    assert st.is_orbit_closed(st.OrbitInput((mono, other, q))) is False


def test_verify_counts(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    s = st.enumerate_strata(generic_sl2(Ksqrt2), i2)
    rep = st.verify_counts(s)
    assert (rep.strata, rep.closed) == (5, 4)
    assert rep.strata_equal and rep.closed_equal
    s2 = st.enumerate_strata(dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]]), i2)
    rep2 = st.verify_counts(s2)
    assert rep2.strata == 4 and rep2.strata_bound == 5
    assert rep2.closed == 3 and rep2.closed_bound == 4
    s3 = st.enumerate_strata(generic_sl3(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 3))
    rep3 = st.verify_counts(s3)
    assert (rep3.strata, rep3.strata_bound) == (55, 55)
    assert (rep3.closed, rep3.closed_bound) == (36, 36)


def test_genericity_check(Ksqrt2):
    assert genericity_check(generic_sl2(Ksqrt2)) is True
    assert genericity_check(
        dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]])) is False
    assert genericity_check(dc.MatrixK.identity(Ksqrt2, 2)) is False


def test_generic_implies_full_count(Ksqrt2):
    # generic SL3 inputs drawn directly as lower x upper unipotent x
    # diagonal factors (conftest.generic_sl), each confirmed generic
    rng = random.Random(43)
    i3 = dc.MatrixK.identity(Ksqrt2, 3)
    for _ in range(5):
        g1 = generic_sl(Ksqrt2, 3, rng)
        assert genericity_check(g1)
        s = st.enumerate_strata(g1, i3)
        assert len(s.records) == 55


def test_refuses_large_n(Ksqrt2, monkeypatch):
    # n = 1 and n = 6 raise before any field arithmetic: not one
    # NumberField.dot
    calls = []
    dot = nf.NumberField.dot
    monkeypatch.setattr(nf.NumberField, "dot",
                        lambda self, xs, ys: calls.append(1) or dot(self, xs, ys))
    for n in (1, rd.ENUM_CAP + 1):
        i_n = dc.MatrixK.identity(Ksqrt2, n)
        with pytest.raises(TooLarge):
            st.enumerate_strata(i_n, i_n)
    assert calls == []


def test_monotonicity_in_subset(Ksqrt2):
    # membership at a subset propagates to every larger subset with the
    # same witnesses
    rng = random.Random(47)
    for n in (2, 3):
        for _ in range(8):
            h = random_sl(Ksqrt2, n, rng)
            for s1 in rd.all_subsets(n):
                for s2 in rd.all_subsets(n):
                    if not s1.simples <= s2.simples:
                        continue
                    for w1 in rd.coset_representatives(n, s1):
                        for w2 in rd.coset_representatives(n, s1):
                            if dc.cell_membership(h, s1, w1, w2):
                                assert dc.cell_membership(h, s2, w1, w2)


def test_equivariance_under_weyl_translation(Ksqrt2):
    # translating the input by monomial representatives conjugates the pair
    # set and the orbits; pairs map exactly, representatives stay in the
    # same membership signature
    rng = random.Random(53)
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    g1 = generic_sl2(Ksqrt2)
    base = st.enumerate_strata(g1, i2)
    for s1 in rd.all_weyl(2):
        for s2 in rd.all_weyl(2):
            r1 = s1.matrix(Ksqrt2)
            r2 = s2.matrix(Ksqrt2)
            moved = st.enumerate_strata(r1 * g1, r2 * i2)
            base_keys = {(frozenset((s1(i), s1(j)) for (i, j) in p.first.positions),
                          frozenset((s2(i), s2(j)) for (i, j) in p.second.positions))
                         for rec in base.records for p in rec.pairs}
            moved_keys = {(p.first.positions, p.second.positions)
                          for rec in moved.records for p in rec.pairs}
            assert base_keys == moved_keys
            assert len(moved.records) == len(base.records)


def test_well_definedness_quotient_is_monomial(Ksqrt2):
    # recomputing a representative from non-canonical coset representatives
    # changes the point by a torus-normalizing (monomial) factor only
    rng = random.Random(59)
    n = 3
    i3 = dc.MatrixK.identity(Ksqrt2, 3)
    for _ in range(4):
        g1 = random_sl(Ksqrt2, n, rng, steps=5)
        h = g1 * i3.inverse()
        for subset in rd.all_subsets(n):
            stab = weyl_stabilizer(subset)
            reps = rd.coset_representatives(n, subset)
            for w1 in reps[:2]:
                for w2 in reps[:2]:
                    m1 = w1.matrix(Ksqrt2)
                    m2 = w2.matrix(Ksqrt2)
                    dec = dc.block_ldu(m1.inverse() * h * m2, subset)
                    if dec is None:
                        continue
                    rep1 = m1 * dec.v_minus.inverse() * m1.inverse() * g1
                    rep2 = m2 * dec.v_plus * m2.inverse() * i3
                    for u1 in stab[:2]:
                        for u2 in stab[:2]:
                            w1b = weyl_compose(w1, u1)
                            w2b = weyl_compose(w2, u2)
                            m1b = w1b.matrix(Ksqrt2)
                            m2b = w2b.matrix(Ksqrt2)
                            decb = dc.block_ldu(m1b.inverse() * h * m2b, subset)
                            assert decb is not None
                            rep1b = m1b * decb.v_minus.inverse() * m1b.inverse() * g1
                            rep2b = m2b * decb.v_plus * m2b.inverse() * i3
                            assert (rep1b * rep1.inverse()).is_monomial()
                            assert (rep2b * rep2.inverse()).is_monomial()


def test_closedness_consistency(Ksqrt2):
    # closed input <=> one record <=> that record is minimal and top at once
    rng = random.Random(61)
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    for _ in range(10):
        q = random_sl(Ksqrt2, 2, rng)
        w = rng.choice(rd.all_weyl(2))
        g1 = w.matrix(Ksqrt2) * q
        inp = st.OrbitInput((g1, q))
        s = st.enumerate_strata(g1, q)
        closed = st.is_orbit_closed(inp)
        assert closed == (len(s.records) == 1)
        if closed:
            rec = s.records[0]
            assert rec.is_top and rec.is_closed


def test_three_component_input_rejected_for_strata(Ksqrt2):
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    inp = st.OrbitInput((i2, i2, i2))
    assert inp.r == 3
    # closedness still works for r = 3 (tested above); enumeration is the
    # two-place operation by signature


def test_summary_line(Ksqrt2):
    s = st.enumerate_strata(generic_sl2(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 2))
    assert st.summary_line(s) == "strata=5 closed=4 bound=5 generic=true"


def test_representatives_match_textbook_formula(Ksqrt2, unipotent_sl4):
    rng = random.Random(71)
    cases = [unipotent_sl4]
    while len(cases) < 4:
        g1 = random_sl(Ksqrt2, 3, rng, steps=5)
        g2 = random_sl(Ksqrt2, 3, rng, steps=5)
        if not g2.is_identity():
            cases.append((g1, g2, st.enumerate_strata(g1, g2)))
    assert len(unipotent_sl4[2].records) == 126
    for g1, g2, s in cases:
        assert not g2.is_identity()
        for rec in s.records:
            for p in rec.pairs:
                assert textbook_representative(p, g1, g2) == rec.representative


def test_closure_poset_matches_bruteforce(Ksqrt2, unipotent_sl4):
    s3 = st.enumerate_strata(generic_sl3(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 3))
    for s in (s3, unipotent_sl4[2]):
        edges, closed = poset_oracle(s)
        assert st.closure_poset(s) == edges
        assert [rec.is_closed for rec in s.records] == closed
        assert [rec for rec in s.records if rec.is_closed] == st.closed_strata(s)


def test_enumeration_reads_one_table(Ksqrt2, monkeypatch):
    # the work of a table: at most one inverse per nonzero minor
    # (sum_k C(n, k)^2 of them: 19 at n = 3, 69 at n = 4), and no matrix
    # inverse but g2's, one more field inverse; per-pair elimination or
    # inversion would fail this loudly
    counts = {"inverse": 0, "matrix_inverse": 0}
    real_inverse = nf.FieldElement.inverse
    real_matrix_inverse = dc.MatrixK.inverse

    def inverse(x):
        counts["inverse"] += 1
        return real_inverse(x)

    def matrix_inverse(m):
        counts["matrix_inverse"] += 1
        return real_matrix_inverse(m)

    g4 = dc.MatrixK.from_rational_rows(
        Ksqrt2, [[Fraction(1, 12)] * 4, [1, 2, 4, 8], [1, 3, 9, 27],
                 [1, 4, 16, 64]])
    g2 = random_sl(Ksqrt2, 3, random.Random(5))
    cases = [(generic_sl3(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 3), 19, 55, 0),
             (g4, dc.MatrixK.identity(Ksqrt2, 4), 69, 1077, 0),
             (generic_sl3(Ksqrt2) * g2, g2, 20, 55, 1)]
    for g1, g2, _, _, _ in cases:
        # the inputs' determinants are checked when they are loaded, as
        # config.load_matrix does, and kept on the matrices
        g1.det()
        g2.det()
    monkeypatch.setattr(nf.FieldElement, "inverse", inverse)
    monkeypatch.setattr(dc.MatrixK, "inverse", matrix_inverse)
    for g1, g2, most, records, matrix_inverses in cases:
        counts.update(inverse=0, matrix_inverse=0)
        s = st.enumerate_strata(g1, g2)
        assert len(s.records) == records
        assert counts["inverse"] <= most
        assert counts["matrix_inverse"] == matrix_inverses


def test_summary_genericity_matches_check(Ksqrt2):
    rng = random.Random(73)
    i2 = dc.MatrixK.identity(Ksqrt2, 2)
    cases = [(generic_sl2(Ksqrt2), i2), (i2, i2),
             (dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [0, 1]]), i2),
             (generic_sl3(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 3))]
    cases += [(random_sl(Ksqrt2, 3, rng, steps=6), random_sl(Ksqrt2, 3, rng))
              for _ in range(6)]
    seen = set()
    for g1, g2 in cases:
        s = st.enumerate_strata(g1, g2)
        want = genericity_check(g1 * g2.inverse())
        assert s.is_generic is want
        assert st.summary_line(s).endswith(f"generic={str(want).lower()}")
        seen.add(want)
    assert seen == {True, False}


def generic_sl4(K):
    return dc.MatrixK.from_rational_rows(
        K, [[Fraction(1, 12)] * 4, [1, 2, 4, 8], [1, 3, 9, 27], [1, 4, 16, 64]])


@settings(max_examples=16, deadline=None)
@given(data=hs.data())
def test_interned_ldu_and_strata_match_the_fieldelement_oracle(
        Ksqrt2, Kcubic, data):
    # random SL3 inputs and a few SL4 ones, over Q(sqrt 2) and the cyclic
    # cubic, with an identity g2 and with a random one: every ldu of the
    # table and the records and pair count of enumerate_strata
    K = data.draw(hs.sampled_from([Ksqrt2, Kcubic]))
    n = data.draw(hs.sampled_from([3, 3, 3, 4]))
    rng = random.Random(data.draw(hs.integers(0, 2 ** 32)))
    g1 = random_sl(K, n, rng, steps=data.draw(hs.integers(2, 8)))
    g2 = (dc.MatrixK.identity(K, n) if data.draw(hs.booleans())
          else random_sl(K, n, rng))
    h = g1 * g2.inverse()
    table, oracle = dc.MinorTable(h), dc.MinorTable(h)
    for subset in rd.all_subsets(n):
        reps = rd.coset_representatives(n, subset)
        for w1 in reps:
            for w2 in reps:
                assert table.ldu(subset, w1, w2) == \
                    fieldelement_ldu(oracle, subset, w1, w2)
    assert strata_summary(st.enumerate_strata(g1, g2)) == \
        fieldelement_strata(g1, g2)


def test_enumeration_computes_each_product_and_sum_once(Ksqrt2, monkeypatch):
    # on the generic SL4 input every distinct operand pair is multiplied,
    # added or divided once (the table's memos on interned ids), and there
    # are no more distinct products and sums than the per-pair dots of the
    # element-by-element LDU had
    g1, g2 = generic_sl4(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 4)
    g1.det()
    seen = {op: Counter() for op in ("mul", "add", "div")}

    def counted(op, real):
        def wrapper(x, y):
            seen[op][frozenset([(x.num, x.den), (y.num, y.den)])
                     if op != "div" else ((x.num, x.den), (y.num, y.den))] += 1
            return real(x, y)
        return wrapper

    for op, name in (("mul", "__mul__"), ("add", "__add__"),
                     ("div", "__truediv__")):
        monkeypatch.setattr(nf.FieldElement, name,
                            counted(op, getattr(nf.FieldElement, name)))
    s = st.enumerate_strata(g1, g2)
    assert len(s.records) == 1077
    assert all(c == 1 for counts in seen.values() for c in counts.values())
    assert len(seen["mul"]) <= 4081
    assert len(seen["add"]) <= 4203


def test_corrupted_ratio_mid_enumeration_raises(Ksqrt2, monkeypatch):
    # once 100 Borel pairs of the generic SL4 input have run, the stored
    # ratio v^+[0, 1] of the next pair that reads a stored one is doubled;
    # that pair's recomposition check must refuse it, memos notwithstanding
    real = dc.MinorTable.ldu_ids
    calls, corrupted = [], []

    def ldu_ids(table, subset, w1, w2):
        calls.append(subset)
        if len(calls) > 100 and not subset.simples and not corrupted:
            a1, a2 = w1.set_action, w2.set_action
            key = (a1[1][1], a2[2][1], a1[1][1], a2[1][1])
            if key in table._ratios:
                ratio = table.values[table._ratios[key]]
                table._ratios[key] = table.id(ratio + ratio)
                corrupted.append(len(calls))
        return real(table, subset, w1, w2)

    monkeypatch.setattr(dc.MinorTable, "ldu_ids", ldu_ids)
    with pytest.raises(InvariantViolation):
        st.enumerate_strata(generic_sl4(Ksqrt2), dc.MatrixK.identity(Ksqrt2, 4))
    assert corrupted == [len(calls)] and corrupted[0] > 100


def test_strict_containment_shrinks_the_subset():
    # the lemma the poset's subset walk rests on, over every pair of every n
    # the cap admits: a pair mask strictly inside another has its subset
    # strictly inside the other's.  Strict containment needs fewer bits,
    # and all masks of one subset have the same number of bits (checked),
    # so only groups with fewer bits than a group whose subset does not
    # strictly contain theirs are compared
    for n in range(2, rd.ENUM_CAP + 1):
        groups = {}
        for subset in rd.all_subsets(n):
            reps = rd.coset_representatives(n, subset)
            firsts = [rd.parabolic_descriptor(subset, w, opposite=True)
                      for w in reps]
            seconds = [rd.parabolic_descriptor(subset, w) for w in reps]
            masks = [st.ParabolicPair(first, second, subset, (w1, w2)).mask
                     for first, w1 in zip(firsts, reps)
                     for second, w2 in zip(seconds, reps)]
            sizes = {m.bit_count() for m in masks}
            assert len(sizes) == 1
            groups[subset.mask] = sizes.pop(), np.array(masks, dtype=np.uint64)
        compared = 0
        for t, (size_t, inner) in groups.items():
            for s, (size_s, outer) in groups.items():
                if size_t < size_s and not t & s == t != s:
                    inside = (inner[:, None] & ~outer[None, :]) == 0
                    assert not inside.any(), (n, t, s)
                    compared += inner.size * outer.size
        assert compared or n < 4


@settings(max_examples=10, deadline=None)
@given(data=hs.data())
def test_poset_by_subset_matches_the_all_pairs_sweep(Ksqrt2, Kcubic, data):
    # random SL3 and SL4 inputs, generic (conftest.generic_sl) or not
    # (random_sl, mostly missing pairs, sometimes merging them), with an
    # identity or a random g2: the poset edges, the minimal pairs and the
    # closed flags against the sweep of every pair mask against every other
    K = data.draw(hs.sampled_from([Ksqrt2, Kcubic]))
    n = data.draw(hs.sampled_from([3, 3, 4]))
    rng = random.Random(data.draw(hs.integers(0, 2 ** 32)))
    g1 = (generic_sl(K, n, rng) if data.draw(hs.booleans())
          else random_sl(K, n, rng, steps=data.draw(hs.integers(1, 8))))
    g2 = (dc.MatrixK.identity(K, n) if data.draw(hs.booleans())
          else random_sl(K, n, rng))
    s = st.enumerate_strata(g1 * g2, g2)
    edges, minimal = all_pairs_poset(s)
    assert st.closure_poset(s) == edges
    assert s.minimal_pairs == minimal
    masks = {p.mask for p in minimal}
    assert [rec.is_closed for rec in s.records] == \
        [any(p.mask in masks for p in rec.pairs) for rec in s.records]


def test_g2_multiplies_on_ids(Ksqrt2, monkeypatch):
    # generic SL4 with a random g2: each entry of a record times g2 is one
    # sum of products on the table's ids, so the NumberField.dot calls left
    # are the minors of the tables of g2 (its inverse) and of h, and the
    # n^2 entries of g1 g2^{-1}; a dot per entry of every record made 34,618
    g2 = random_sl(Ksqrt2, 4, random.Random(5))
    g1 = generic_sl4(Ksqrt2) * g2
    g1.det()
    g2.det()
    calls = []
    dot = nf.NumberField.dot
    monkeypatch.setattr(nf.NumberField, "dot",
                        lambda self, xs, ys: calls.append(1) or dot(self, xs, ys))
    s = st.enumerate_strata(g1, g2)
    assert len(s.records) == 1077
    minors = sum(math.comb(4, k) ** 2 for k in range(1, 5))
    assert len(calls) <= 2 * minors + 16
