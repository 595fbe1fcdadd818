"""Partition combinatorics: hooks, cores, quotients, wreath labels."""

import math

from hypothesis import given, settings, strategies as st

from mckaylab.exactfield import spp
from mckaylab.partitions import (
    conjugate,
    e_core_quotient,
    from_core_quotient,
    generic_degree,
    hook_lengths,
    partitions,
    wreath_degree,
    wreath_irr,
    wreath_labels,
)

small_partitions = st.integers(1, 12).flatmap(
    lambda n: st.sampled_from(partitions(n)))


def test_partition_lists_are_sorted_and_complete():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(10)) == 42
    assert partitions(0) == ((),)


@given(small_partitions)
@settings(max_examples=150, deadline=None)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


@given(small_partitions)
@settings(max_examples=150, deadline=None)
def test_hooks_are_conjugation_invariant(lam):
    assert sorted(hook_lengths(lam)) == sorted(hook_lengths(conjugate(lam)))


def test_symmetric_dims_square_to_factorial():
    # the one-component wreath label (mu,) is the S_|mu| irreducible mu
    for n in range(1, 7):
        assert sum(wreath_degree((lam,)) ** 2 for lam in partitions(n)) \
            == math.factorial(n)
    assert wreath_degree(((2, 1),)) == 2


@given(small_partitions, st.integers(2, 6))
@settings(max_examples=200, deadline=None)
def test_core_quotient_round_trip(lam, e):
    core, quot, w = e_core_quotient(lam, e)
    assert sum(core) + e * w == sum(lam)
    assert sum(sum(part) for part in quot) == w
    assert from_core_quotient(core, quot, e) == lam
    # the core really is a core
    core2, _, w2 = e_core_quotient(core, e)
    assert core2 == core and w2 == 0


def test_core_quotient_known_case():
    assert e_core_quotient((2, 1), 2) == ((2, 1), ((), ()), 0)
    core, quot, w = e_core_quotient((2, 2), 2)
    assert core == () and w == 2


def test_generic_degrees_match_rank_two_tables():
    assert [generic_degree(lam, spp(1, 3)) for lam in partitions(2)] == [1, 3]
    assert [generic_degree(lam, spp(-1, 2)) for lam in partitions(2)] == [1, 2]
    assert [generic_degree(lam, spp(1, 2)) for lam in partitions(3)] \
        == [1, 2 + 2**2, 2**3]


def test_wreath_label_degrees():
    labels = wreath_labels(2, 2)
    assert len(labels) == 5
    assert sorted(wreath_degree(l) for l in labels) == [1, 1, 1, 1, 2]


def test_wreath_irr_mass_formula():
    for e in (1, 2, 3, 4):
        for w in (0, 1, 2, 3, 4):
            pairs = wreath_irr(e, w)
            assert all(d == wreath_degree(l) for l, d in pairs)
            assert sum(d * d for _, d in pairs) == e**w * math.factorial(w)
