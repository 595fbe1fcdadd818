"""Arithmetic helpers: signed prime powers, orders, field towers."""

import pytest
from hypothesis import given, settings, strategies as st

from mckaylab.exactfield import (
    ExactFieldError,
    build_field,
    ell_part,
    ell_val,
    group_order,
    mult_order,
    order_for_ell,
    sl_group_order,
    spp,
)


def test_signed_prime_power_basics():
    sp = spp(1, 3)
    assert (sp.eps, sp.q, sp.p, sp.eq) == (1, 3, 3, 3)
    su = spp(-1, 2)
    assert (su.eps, su.q, su.p, su.eq) == (-1, 2, 2, -2)
    assert spp(1, 4).p == 2


def test_spp_rejects_bad_input():
    with pytest.raises(ExactFieldError):
        spp(2, 3)
    with pytest.raises(ExactFieldError):
        spp(1, 6)
    with pytest.raises(ExactFieldError):
        spp(1, 1)


def test_group_orders_match_known_values():
    assert group_order(2, spp(1, 3)) == 48
    assert group_order(3, spp(1, 2)) == 168
    assert group_order(2, spp(-1, 2)) == 18
    assert group_order(3, spp(-1, 2)) == 648
    assert sl_group_order(2, spp(1, 3)) == 24
    assert sl_group_order(2, spp(-1, 2)) == 6


def test_mult_order_known_values():
    assert mult_order(2, 7) == 3
    assert mult_order(3, 8) == 2
    assert mult_order(1, 5) == 1


@given(st.integers(2, 400), st.integers(2, 200))
@settings(max_examples=200, deadline=None)
def test_mult_order_is_the_least_exponent(a, modulus):
    import math
    if math.gcd(a, modulus) != 1:
        return
    d = mult_order(a, modulus)
    assert pow(a, d, modulus) == 1
    assert all(pow(a, k, modulus) != 1 for k in range(1, d))


def test_order_for_ell_uses_mod_four_at_two():
    # at ell = 2 the relevant congruence is mod 4
    assert order_for_ell(3, 2) == 2
    assert order_for_ell(5, 2) == 1
    assert order_for_ell(-3, 2) == 1
    assert order_for_ell(2, 7) == 3
    assert order_for_ell(-2, 3) == 1


@given(st.integers(2, 10**6), st.sampled_from([2, 3, 5, 7, 11]))
@settings(max_examples=200, deadline=None)
def test_ell_part_splits_the_absolute_value(x, ell):
    part, cofactor = ell_part(x, ell)
    assert part * cofactor == x
    assert cofactor % ell != 0
    assert ell_val(x, ell) == ell_val(part, ell)
    assert part == ell ** ell_val(x, ell)


def test_ell_part_rejects_zero_and_composite_ell():
    with pytest.raises(ExactFieldError):
        ell_part(0, 2)
    with pytest.raises(ExactFieldError):
        ell_part(12, 4)


def test_field_arithmetic_in_gf4():
    F = build_field(2, 2)
    assert F.size == 4
    nonzero = [a for a in range(4) if a]
    # multiplicative group is cyclic of order 3
    orders = sorted(mult_order_in_field(F, a) for a in nonzero)
    assert orders == [1, 3, 3]
    for a in nonzero:
        assert F.mul(a, F.inv(a)) == 1
    g = F.multiplicative_generator()
    assert mult_order_in_field(F, g) == 3


def mult_order_in_field(F, a):
    k, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        k += 1
    return k


def test_field_addition_has_characteristic_p():
    F = build_field(3, 2)
    for a in range(F.size):
        assert F.add(F.add(a, a), a) == 0
        assert F.add(a, F.neg(a)) == 0


# lexicographically least monic irreducible moduli, little endian
PINNED_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (7, 2): (1, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_MODULI))
def test_build_field_moduli_are_pinned(p, k):
    assert build_field(p, k).modulus == PINNED_MODULI[(p, k)]


@pytest.mark.parametrize("p,k", [(3, 5), (2, 8)])
def test_field_axioms_without_tables(p, k):
    # GF(243) and GF(256) are past the table limit, so every product
    # reduces modulo the defining polynomial afresh.
    F = build_field(p, k)
    assert F._mul_table is None
    for a in F.units():
        assert F.mul(a, F.inv(a)) == 1
    g = F.multiplicative_generator()
    x, powers = g, []
    for _ in range(k):
        x = F.frobenius(x)
        powers.append(x)
    assert powers[-1] == g and g not in powers[:-1]
    sample = range(1, F.size, 7)
    for a in sample:
        for b in sample[::5]:
            for c in sample[::11]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
