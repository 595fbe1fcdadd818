"""Generalized Gelfand-Graev data: weights, representatives, multiplicities."""

from collections import Counter

import pytest

from mckaylab import gggr
from mckaylab.exactfield import build_field, spp
from mckaylab.partitions import partitions


def test_weighted_dynkin_frozen_examples():
    assert gggr.weighted_dynkin((3,)) == ((-2, 0, 2), (2, 2))
    assert gggr.weighted_dynkin((2, 1)) == ((-1, 0, 1), (1, 1))
    assert gggr.weighted_dynkin((1, 1, 1)) == ((0, 0, 0), (0, 0))
    assert gggr.weighted_dynkin((2, 2)) == ((-1, -1, 1, 1), (0, 2, 0))
    assert gggr.weighted_dynkin((4,)) == ((-3, -1, 1, 3), (2, 2, 2))


def test_level_counts():
    assert gggr.e1_count((2, 1)) == 2
    assert gggr.e1_count((3,)) == 0
    assert gggr.e1_count((1, 1, 1)) == 0
    assert len(gggr.u2_positions((3,))) == 3
    assert len(gggr.u2_positions((2, 1))) == 1
    assert gggr.exact2_positions((2, 1)) == ((2, 0),)


def test_parity_and_symmetry_sweep_small():
    assert gggr.sweep_parity_symmetry(12) == sum(
        len(partitions(n)) for n in range(1, 13))


def test_parity_and_symmetry_reject_bad_weights():
    assert gggr.weight_counts((3, 1)) == Counter({-2: 1, 0: 2, 2: 1})
    # one position of level 1: e_1 odd
    assert not gggr.parity_ok(Counter({0: 1, 1: 1}))
    assert not gggr.symmetry_ok(Counter({0: 1, 1: 1}))
    assert gggr.parity_ok(Counter({-1: 1, 1: 1}))


@pytest.mark.parametrize("q", [2, 3])
def test_representatives_have_the_right_jordan_type(q):
    for n in range(2, 5):
        for lam in partitions(n):
            assert gggr.check_representative(lam, q)


def test_naive_level_two_fill_is_wrong_for_two_two():
    # filling every exact level-2 position does NOT give Jordan type (2,2);
    # the per-block chain does.
    F = build_field(2, 1)
    basis = gggr.weight_multiset((2, 2))
    n = len(basis)
    naive = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in gggr.exact2_positions((2, 2)):
        naive[i][j] = 1
    naive = tuple(tuple(row) for row in naive)
    assert gggr.jordan_type(naive, F) == (2, 1, 1)
    assert gggr.jordan_type(gggr.rep_unipotent((2, 2)), F) == (2, 2)


@pytest.mark.parametrize("lam,q", [
    ((2,), 2), ((2,), 3), ((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((3,), 2),
    ((3, 1), 2), ((4,), 2), ((2,), 4), ((2,), 5),
])
def test_character_is_multiplicative(lam, q):
    assert gggr.check_homomorphism(lam, q) > 0


@pytest.mark.parametrize("lam,q", [
    ((2,), 2), ((2, 1), 2), ((2, 1), 3), ((3,), 2), ((2, 2), 3), ((2,), 4),
])
def test_character_is_twist_equivariant(lam, q):
    assert gggr.check_equivariance(lam, q) > 0


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_gamma_conjugacy_witnesses(n, q):
    for lam in partitions(n):
        u, g = gggr.check_gamma_conjugacy(lam, q)
        assert sum(lam) == n and len(g) == n


def test_gggr_multiplicities_frozen():
    assert gggr.gggr_multiplicities(2, 2, (2,)) == (1, 0, 1)
    assert gggr.gggr_multiplicities(2, 2, (1, 1)) == (1, 1, 2)
    assert gggr.gggr_multiplicities(2, 3, (2,)) == (0, 0, 1, 1, 1, 1, 1, 1)
    assert gggr.gggr_multiplicities(3, 2, (3,)) == (0, 1, 1, 0, 1, 1)
    assert gggr.gggr_multiplicities(3, 2, (2, 1)) == (0, 1, 1, 1, 2, 2)


def test_multiplicity_one_small_groups():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        res = gggr.check_multiplicity_one(n, q)
        assert res["all_covered"] is True
        assert res["regular_multfree"] is True
        assert res["regular_constituents"] == res["n_ss_classes"]
        assert res["trivial_gives_regular_rep"] is True


def test_regular_class_sum_is_twenty_one_dimensional():
    # the multiplicity-free constituents of the regular-class construction
    # for GL_3(2) have degrees 3, 3, 7, 8
    from mckaylab.bijection import oracle_table
    _, table = oracle_table("GL", 3, 2)
    mults = gggr.gggr_multiplicities(3, 2, (3,))
    degs = sorted(chi.degree for chi, m in zip(table.chars, mults) if m)
    assert degs == [3, 3, 7, 8]
    assert sum(m * chi.degree for m, chi in zip(mults, table.chars)) == 21
