"""Arithmetic helpers: signed prime powers, orders, field towers."""

import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from mckaylab.exactfield import (
    _MR_BOUND,
    CertificateError,
    ExactFieldError,
    _irreducible,
    _monic,
    build_field,
    cycles,
    ell_part,
    ell_val,
    group_order,
    isprime,
    mult_order,
    order_for_ell,
    prime_factors,
    prime_power,
    sl_group_order,
    spp,
)

# sympy is a test-only dependency: the reference the integer routines are
# checked against.


def test_isprime_matches_sympy_up_to_200000():
    assert [n for n in range(-3, 200_001) if isprime(n)] == list(
        sympy.primerange(2, 200_001))


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,  # Carmichael
    2047, 1373653, 25326001, 3215031751,  # strong pseudoprimes to 2; 2,3; 2,3,5; 2,3,5,7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    2**61 - 1, 2**31 - 1, 10**18 + 9, _MR_BOUND - 2,
])
def test_isprime_on_pseudoprimes_and_large_numbers(n):
    assert isprime(n) == sympy.isprime(n)


def test_isprime_refuses_past_its_proven_bound():
    with pytest.raises(ExactFieldError, match="primality bound"):
        isprime(_MR_BOUND)
    with pytest.raises(ExactFieldError):
        isprime(2**89 - 1)


def _sympy_prime_power(q):
    fac = sympy.factorint(q) if q >= 2 else {}
    return next(iter(fac.items())) if len(fac) == 1 else None


def test_prime_power_matches_sympy_up_to_5000():
    for q in range(5001):
        assert prime_power(q) == _sympy_prime_power(q), q


@pytest.mark.parametrize("q,expected", [
    ((2**61 - 1) ** 2, (2**61 - 1, 2)),
    (1000003**3, (1000003, 3)),
    (1000003 * 1000033, None),
    (2**80, (2, 80)),
    (6**40, None),
    (-4, None),
    (-27, None),
])
def test_prime_power_on_large_and_negative_inputs(q, expected):
    assert prime_power(q) == expected


def test_prime_factors_match_sympy_up_to_3000():
    for n in range(1, 3001):
        assert prime_factors(n) == sympy.primefactors(n), n
    with pytest.raises(ExactFieldError):
        prime_factors(0)


def test_irreducible_matches_sympy_on_small_candidates():
    for p in (2, 3, 5, 7, 11, 13):
        k = 1
        while p**k <= 169:
            for code in range(p**k):
                poly = _monic(code, k, p)
                assert _irreducible(poly, p) == gf_irreducible_p(
                    list(poly[::-1]), p, ZZ), (p, poly)
            k += 1


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7, 11, 13)
                                 for k in range(1, 8) if p**k <= 169])
def test_build_field_picks_the_modulus_sympy_would(p, k):
    # every field of the oracle and gggr, GF(q) and GF(q^2) for q <= 13
    first = next(_monic(code, k, p) for code in range(p**k)
                 if gf_irreducible_p(list(_monic(code, k, p)[::-1]), p, ZZ))
    assert build_field(p, k).modulus == first


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


def _brute_force_orbits(perm):
    """The orbits of perm on range(len(perm)), as sets ordered by least member."""
    orbits = []
    for x in range(len(perm)):
        orbit, y = {x}, x
        for _ in range(len(perm)):
            y = perm[y]
            orbit.add(y)
        if orbit not in orbits:
            orbits.append(orbit)
    return orbits


def test_cycles_match_brute_force_orbits_on_random_permutations():
    rng = random.Random(19)
    for _ in range(300):
        perm = list(range(rng.randrange(40)))
        rng.shuffle(perm)
        orbits = _brute_force_orbits(perm)
        period = math.lcm(*map(len, orbits)) * rng.randint(1, 3)
        got = list(cycles(len(perm), perm.__getitem__, period))
        assert [set(c) for c in got] == orbits
        for c in got:
            assert c[0] == min(c)
            assert [perm[x] for x in c] == c[1:] + c[:1]


@pytest.mark.parametrize("images,period", [
    ((1, 0, 0), 2),            # not injective: 2 walks into the cycle (0 1)
    ((1, 2, 0), 4),            # a 3-cycle, but 3 does not divide 4
    ((1, 2, 3, 4, 5, 0), 4),   # open: the walk is cut at period + 1 members
])
def test_cycles_raise_unless_every_walk_closes_within_the_period(images, period):
    with pytest.raises(CertificateError, match="does not return"):
        list(cycles(len(images), images.__getitem__, period))


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


def digitwise(p, k, *elements, op):
    """Apply op to the base-p digits of the elements, position by position."""
    digits = [[(x // p**i) % p for i in range(k)] for x in elements]
    return sum((op(*column) % p) * p**i for i, column in enumerate(zip(*digits)))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2, 7)])
def test_add_and_neg_tables_match_digit_arithmetic(p, k):
    F = build_field(p, k)
    assert F.add_table is not None and F.neg_table is not None
    assert F.mul_table is not None and F.inv_table is not None
    for a in range(F.size):
        assert F.neg(a) == digitwise(p, k, a, op=lambda x: -x)
        for b in range(F.size):
            assert F.add(a, b) == digitwise(p, k, a, b, op=lambda x, y: x + y)
            assert F.sub(a, b) == digitwise(p, k, a, b, op=lambda x, y: x - y)
            assert F.mul(a, b) == F._mul_raw(a, b)
        if a:
            assert F._mul_raw(a, F.inv(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2, 7)])
def test_frobenius_table_is_the_p_power_map(p, k):
    F = build_field(p, k)
    powers = []
    for a in range(F.size):
        x = 1
        for _ in range(p):
            x = F._mul_raw(x, a)
        powers.append(x)
    assert F.frob_table == powers
    assert [F.frobenius(a) for a in range(F.size)] == F.frob_table


@pytest.mark.parametrize("p,k", [(3, 5), (2, 8)])
def test_field_axioms_without_tables(p, k):
    # GF(243) and GF(256) are past the table limit, so every product
    # reduces modulo the defining polynomial afresh.
    F = build_field(p, k)
    assert F.mul_table is None and F.add_table is None
    assert F.frob_table is None
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
