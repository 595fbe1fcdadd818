"""Partition combinatorics: hooks, cores, quotients, wreath labels."""

import math

from hypothesis import given, settings, strategies as st

from mckaylab.exactfield import CertificateError, spp
from mckaylab.partitions import (
    _partition_from_beta,
    beta_set,
    conjugate,
    e_core_quotient,
    generic_degree,
    hook_lengths,
    partitions,
    wreath_degree,
    wreath_labels,
)

small_partitions = st.integers(1, 12).flatmap(
    lambda n: st.sampled_from(partitions(n)))


def test_partition_lists_are_sorted_and_complete():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(10)) == 42
    assert partitions(0) == ((),)


def reference_partitions(n):
    """Partitions of n in reverse lexicographic order, by recursion on the
    largest part."""
    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest
    return tuple(gen(n, n))


def test_partition_walk_matches_a_recursive_reference():
    for n in range(21):
        assert partitions(n) == reference_partitions(n)


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


def from_core_quotient(core, quotient, e):
    """Inverse of e_core_quotient for a genuine e-core."""
    if len(quotient) != e:
        raise ValueError("quotient must have e components")
    need = max([len(core)] + [e * (len(mu) + 1) for mu in quotient])
    length = e * (need // e + 1)
    beta = beta_set(core, length)
    runners = [[] for _ in range(e)]
    for b in beta:
        runners[b % e].append(b // e)
    new_beta = []
    for r, runner in enumerate(runners):
        positions = sorted(runner)
        if positions != list(range(len(positions))):
            raise CertificateError("input is not an e-core")
        mu = quotient[r]
        k = len(positions)
        padded = tuple(mu) + (0,) * (k - len(mu))
        for i, pos in enumerate(positions):
            new_beta.append(e * (pos + padded[k - 1 - i]) + r)
    return _partition_from_beta(tuple(new_beta))


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
            assert sum(wreath_degree(l) ** 2 for l in wreath_labels(e, w)) \
                == e**w * math.factorial(w)
