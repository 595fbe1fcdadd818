"""Brute-force matrix groups: construction, classes, subgroup machinery."""

import pytest

from mckaylab.matrixoracle import (
    OracleError,
    build_group,
    frobenius_map,
    gamma_map,
    normalizer,
    subgroup_closure,
    sylow_subgroup,
)

KNOWN = {
    ("SL", 2, 3): (24, 7),
    ("GL", 2, 3): (48, 8),
    ("GL", 3, 2): (168, 6),
    ("GU", 2, 2): (18, 9),
    ("SU", 2, 2): (6, 3),
    ("GL", 2, 2): (6, 3),
    ("GL", 2, 5): (480, 24),
}


@pytest.mark.parametrize("key", sorted(KNOWN))
def test_orders_and_class_counts(key):
    kind, n, q = key
    order, n_classes = KNOWN[key]
    G = build_group(kind, n, q)
    assert G.order == order
    assert G.conjugacy_classes().count == n_classes


def test_gu3_2_order_and_classes():
    G = build_group("GU", 3, 2)
    assert G.order == 648
    assert G.conjugacy_classes().count == 24


def test_class_partition_is_deterministic_and_sane():
    G = build_group("GL", 2, 3)
    part = G.conjugacy_classes()
    assert part.reps[0] == G.identity
    assert sum(part.sizes) == G.order
    sizes = list(part.sizes)
    assert sizes[0] == 1
    # identity first, then ordered by size
    assert sizes[1:] == sorted(sizes[1:])


def test_exponent_and_element_orders():
    G = build_group("SL", 2, 3)
    assert G.exponent() == 12
    assert sorted({G.element_order(g) for g in G.elements}) == [1, 2, 3, 4, 6]


def test_sylow_subgroups_and_normalizers():
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 2)
    assert P.order == 16
    assert normalizer(G, P).order == 16
    H = build_group("GL", 3, 2)
    P7 = sylow_subgroup(H, 7)
    assert P7.order == 7
    assert normalizer(H, P7).order == 21


def test_sylow_at_prime_not_dividing_is_trivial():
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 5)
    assert P.order == 1
    assert normalizer(G, P).order == G.order


def test_quaternion_subgroup_of_sl2_3_is_normal():
    G = build_group("SL", 2, 3)
    gens = [g for g in G.elements if G.element_order(g) == 4]
    Q = subgroup_closure(G, gens)
    assert Q.order == 8
    assert normalizer(G, Q).order == 24


def test_automorphisms_are_multiplicative():
    G = build_group("GU", 2, 2)
    sample = G.elements[:6]
    for g in sample:
        for h in sample:
            assert gamma_map(G, G.mul(g, h)) \
                == G.mul(gamma_map(G, g), gamma_map(G, h))
            assert frobenius_map(G, G.mul(g, h)) \
                == G.mul(frobenius_map(G, g), frobenius_map(G, h))


def test_automorphisms_permute_the_group():
    G = build_group("SL", 2, 3)
    image = {gamma_map(G, g) for g in G.elements}
    assert image == set(G.elements)


def test_build_group_rejects_bad_input():
    with pytest.raises(OracleError):
        build_group("SP", 2, 3)
    with pytest.raises(OracleError):
        build_group("GL", 4, 7, limit=1000)
