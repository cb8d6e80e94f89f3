import itertools
import math

import pytest

from torusorbits import rootdata as rd
from torusorbits.errors import TooLarge

from conftest import (brute_force_cosets, loop_unipotent_positions,
                      monomial_entries, weyl_compose, weyl_stabilizer)


def test_all_weyl_counts():
    assert len(rd.all_weyl(2)) == 2
    assert len(rd.all_weyl(3)) == 6
    assert len(rd.all_weyl(5)) == 120
    with pytest.raises(TooLarge):
        rd.all_weyl(6)


def test_weyl_representative_det_one(Ksqrt2):
    for n in (2, 3, 4):
        for w in rd.all_weyl(n):
            m = w.matrix(Ksqrt2)
            assert m.det() == Ksqrt2.one
            assert m.is_monomial()
    s = rd.all_weyl(2)[1]
    ent = sorted(monomial_entries(s.matrix(Ksqrt2)))
    assert ent == [(0, 1, -1), (1, 0, 1)] or ent == [(0, 1, 1), (1, 0, -1)]


def test_cached_weyl_attributes_leave_equality_alone():
    # signs and set_action are computed once per element and kept on it
    for w in rd.all_weyl(3):
        fresh = rd.WeylElement(w.perm)
        assert w.signs is w.signs and w.set_action is w.set_action
        assert fresh == w and hash(fresh) == hash(w)
        assert fresh.set_action == w.set_action


def test_longest_element():
    assert rd.longest_element(2).perm == (1, 0)
    assert rd.longest_element(3).perm == (2, 1, 0)
    w0 = rd.longest_element(4)
    lower = rd.parabolic_descriptor(rd.RootSubset.empty(4), opposite=True)
    upper = rd.parabolic_descriptor(rd.RootSubset.empty(4))
    conj = frozenset((w0(i), w0(j)) for (i, j) in lower.positions)
    assert conj == upper.positions


def test_parabolic_descriptor_examples():
    # upper Borel for n = 2
    b = rd.parabolic_descriptor(rd.RootSubset.empty(2))
    assert b.positions == frozenset({(0, 1)})
    # block (2,1) standard parabolic for n = 3
    p = rd.parabolic_descriptor(rd.RootSubset.make(3, [1]))
    assert p.positions == frozenset({(0, 1), (1, 0), (0, 2), (1, 2)})
    # conjugating the Borel by the transposition gives the lower Borel
    s = rd.all_weyl(2)[1]
    lb = rd.parabolic_descriptor(rd.RootSubset.empty(2), s)
    assert lb.positions == frozenset({(1, 0)})


def contains(p, q):
    """Containment read from the masks, as strata reads it."""
    return p.mask & ~q.mask == 0


def test_contains():
    b = rd.parabolic_descriptor(rd.RootSubset.empty(3))
    p = rd.parabolic_descriptor(rd.RootSubset.make(3, [1]))
    g = rd.parabolic_descriptor(rd.RootSubset.full(3))
    assert contains(b, p)
    assert not contains(p, b)
    assert contains(b, g) and contains(p, g)
    ub = rd.parabolic_descriptor(rd.RootSubset.empty(2))
    lb = rd.parabolic_descriptor(rd.RootSubset.empty(2), opposite=True)
    assert not contains(ub, lb)
    # the masks against the position sets, on every pair of descriptors
    for n in (2, 3):
        descs = [rd.parabolic_descriptor(subset, w, flag)
                 for subset in rd.all_subsets(n) for w in rd.all_weyl(n)
                 for flag in (False, True)]
        for d1, d2 in itertools.product(descs, repeat=2):
            assert contains(d1, d2) is (d1.positions <= d2.positions)


def test_n_psi():
    assert rd.n_psi(2, rd.RootSubset.empty(2)) == 2
    assert rd.n_psi(3, rd.RootSubset.make(3, [1])) == 3
    for n in (2, 3, 4):
        assert rd.n_psi(n, rd.RootSubset.full(n)) == 1


def test_n_psi_formula_all_subsets():
    # the closed form against the conjugates counted by enumeration
    for n in (2, 3, 4, 5):
        for subset in rd.all_subsets(n):
            distinct = {rd.parabolic_descriptor(subset, w).positions
                        for w in rd.all_weyl(n)}
            assert rd.n_psi(n, subset) == len(distinct)


def test_coset_representatives():
    assert len(rd.coset_representatives(2, rd.RootSubset.empty(2))) == 2
    assert len(rd.coset_representatives(3, rd.RootSubset.make(3, [1]))) == 3
    assert len(rd.coset_representatives(3, rd.RootSubset.full(3))) == 1


def test_coset_rule_matches_the_brute_force_cosets():
    # the block-increasing rule returns the very elements of all_weyl that
    # the coset-by-coset scan keeps, in the same order
    for n in (2, 3, 4, 5):
        for subset in rd.all_subsets(n):
            rule = rd.coset_representatives(n, subset)
            oracle = brute_force_cosets(n, subset)
            assert len(rule) == len(oracle) == rd.n_psi(n, subset)
            assert all(a is b for a, b in zip(rule, oracle))


def test_unipotent_positions():
    e3 = rd.RootSubset.empty(3)
    assert rd.unipotent_positions(e3, +1) == frozenset({(0, 1), (0, 2), (1, 2)})
    s = rd.RootSubset.make(3, [1])
    assert rd.unipotent_positions(s, +1) == frozenset({(0, 2), (1, 2)})
    assert rd.unipotent_positions(rd.RootSubset.full(3), +1) == frozenset()
    assert rd.unipotent_positions(s, -1) == frozenset({(2, 0), (2, 1)})


def test_unipotent_positions_match_the_double_loop():
    for n in (1, 2, 3, 4, 5):
        for subset in rd.all_subsets(n):
            for sign in (+1, -1):
                assert rd.unipotent_positions(subset, sign) == \
                    loop_unipotent_positions(subset, sign)


def levi_positions(subset):
    """Off-diagonal positions inside the block diagonal."""
    blk = subset.block_of()
    return frozenset((i, j) for i in range(subset.n) for j in range(subset.n)
                     if i != j and blk[i] == blk[j])


def test_radical_factorization():
    # V_{S1} = V_{S2} . (Levi of S2 cap V_{S1}) as position sets, S1 <= S2
    for n in (3, 4):
        for s2 in rd.all_subsets(n):
            for s1 in rd.all_subsets(n):
                if not s1.simples <= s2.simples:
                    continue
                v1 = rd.unipotent_positions(s1, +1)
                v2 = rd.unipotent_positions(s2, +1)
                levi2 = levi_positions(s2)
                middle = levi2 & v1
                assert v1 == v2 | middle
                assert not (v2 & middle)


def test_descriptor_constant_on_cosets():
    for n in (2, 3):
        for subset in rd.all_subsets(n):
            for w in rd.all_weyl(n):
                base = rd.parabolic_descriptor(subset, w)
                for u in weyl_stabilizer(subset):
                    assert rd.parabolic_descriptor(subset,
                                                   weyl_compose(w, u)) == base


def pattern_closed(d):
    """Closure under the multiplication pattern: (i,j),(j,k) => (i,k)."""
    return all((i, k) in d.positions for (i, j) in d.positions
               for (j2, k) in d.positions if j == j2 and i != k)


def test_pattern_closure():
    for n in (2, 3, 4):
        for subset in rd.all_subsets(n):
            for w in rd.all_weyl(n):
                for flag in (False, True):
                    d = rd.parabolic_descriptor(subset, w, flag)
                    assert pattern_closed(d)


def test_minimal_descriptors_are_borels():
    # among all descriptors, the minimal ones under containment are exactly
    # the n! Borel position sets (both orientations together give n! sets)
    for n in (2, 3, 4):
        all_desc = set()
        for subset in rd.all_subsets(n):
            for w in rd.all_weyl(n):
                for flag in (False, True):
                    all_desc.add(rd.parabolic_descriptor(subset, w, flag))
        minimal = [d for d in all_desc
                   if not any(o.positions < d.positions for o in all_desc)]
        borels = {rd.parabolic_descriptor(rd.RootSubset.empty(n), w)
                  for w in rd.all_weyl(n)} | \
                 {rd.parabolic_descriptor(rd.RootSubset.empty(n), w, True)
                  for w in rd.all_weyl(n)}
        assert set(minimal) == borels
        assert len(borels) == math.factorial(n)


def test_type_a_opposite_conjugacy():
    # in type A the opposite parabolic is a Weyl conjugate of the standard
    # parabolic of the reversed subset (alpha_i -> alpha_{n-i}); it lands in
    # the standard subset's own class only when the composition is
    # palindromic, which is why the data model keeps the opposite flag
    for n in (2, 3, 4):
        for subset in rd.all_subsets(n):
            rev = rd.RootSubset.make(n, {n - i for i in subset.simples})
            opp = rd.parabolic_descriptor(subset, opposite=True)
            conj_rev = {rd.parabolic_descriptor(rev, w).positions
                        for w in rd.all_weyl(n)}
            assert opp.positions in conj_rev
            conj_std = {rd.parabolic_descriptor(subset, w).positions
                        for w in rd.all_weyl(n)}
            palindromic = subset.composition == subset.composition[::-1]
            assert (opp.positions in conj_std) == palindromic


def test_sum_n_psi_squared():
    assert rd.sum_n_psi_squared(2) == 5
    assert rd.sum_n_psi_squared(3) == 55
