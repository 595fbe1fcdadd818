"""Global character parameters: degrees, counts, descent to SL/SU."""

import math

import pytest

from mckaylab import charparams, dixon
from mckaylab.exactfield import CertificateError, ell_val, group_order, spp
from mckaylab.matrixoracle import build_group
from mckaylab.charparams import (
    GlobalChar,
    _factors_ellprime,
    count_ellprime,
    count_irr_sl,
    count_jordan_params,
    degree,
    ellprime_structural,
    enumerate_irr,
    global_relevant,
    index_order,
    is_ellprime,
    label_table,
    to_params,
    zhat_act,
)
from mckaylab.ssclasses import (
    canonical_label,
    centralizer_type,
    eigen_modulus,
    enumerate_ss_classes,
    norm_exponent,
    zhat_translate,
)
from test_ssclasses import component_group

ORACLE_CASES = [
    ("GL", 2, 3), ("GL", 2, 2), ("GL", 3, 2), ("GU", 2, 2), ("GL", 2, 5),
]


@pytest.mark.parametrize("kind,n,q", ORACLE_CASES)
def test_parameter_count_equals_class_count(kind, n, q):
    sp = spp(1 if kind == "GL" else -1, q)
    G = build_group(kind, n, q)
    assert len(enumerate_irr(n, sp)) == G.conjugacy_classes().count


@pytest.mark.parametrize("kind,n,q", ORACLE_CASES[:4])
def test_degrees_match_exact_tables(kind, n, q):
    sp = spp(1 if kind == "GL" else -1, q)
    G = build_group(kind, n, q)
    table = dixon.character_table(G)
    want = sorted(degree(chi, n, sp) for chi in enumerate_irr(n, sp))
    assert want == sorted(table.degrees)


@pytest.mark.parametrize("n,eps,q", [
    (2, 1, 3), (3, 1, 2), (2, -1, 2), (3, -1, 2), (2, 1, 5), (4, 1, 3),
    (3, -1, 4),
])
def test_degree_mass(n, eps, q):
    sp = spp(eps, q)
    assert sum(degree(chi, n, sp) ** 2 for chi in enumerate_irr(n, sp)) \
        == group_order(n, sp)


def test_ellprime_counts_frozen():
    assert count_ellprime(2, spp(1, 3), 2) == 4
    assert count_ellprime(3, spp(1, 2), 7) == 5
    assert count_ellprime(2, spp(1, 2), 3) == 3
    assert count_ellprime(2, spp(-1, 2), 3) == 9
    assert count_ellprime(2, spp(1, 5), 3) == 18


@pytest.mark.parametrize("n,eps,q,ell", [
    (2, 1, 3, 2), (3, 1, 2, 3), (2, -1, 2, 3), (3, -1, 2, 5), (2, 1, 4, 3),
])
def test_structural_criterion_matches_direct_valuation(n, eps, q, ell):
    sp = spp(eps, q)
    for chi in enumerate_irr(n, sp):
        assert is_ellprime(chi, n, sp, ell) \
            == ellprime_structural(chi, n, sp, ell)


def test_tensor_action_properties():
    sp = spp(1, 3)
    m1 = abs(sp.q - sp.eps)
    for chi in enumerate_irr(2, sp):
        assert zhat_act(chi, sp, 0) == chi
        for z in range(m1):
            moved = zhat_act(chi, sp, z)
            assert degree(moved, 2, sp) == degree(chi, 2, sp)
            assert norm_exponent(moved.cls, sp) \
                == (norm_exponent(chi.cls, sp) + 2 * z) % m1


@pytest.mark.parametrize("n,eps,q", [
    (n, eps, q) for n in (1, 2, 3) for eps in (1, -1) for q in (2, 3, 4, 5)])
def test_tensor_translation_is_an_action(n, eps, q):
    sp = spp(eps, q)
    m1 = abs(sp.q - sp.eps)
    for chi in enumerate_irr(n, sp):
        moved = [zhat_act(chi, sp, a) for a in range(m1)]
        for a in range(m1):
            for b in range(m1):
                assert zhat_act(moved[a], sp, b) == moved[(a + b) % m1]


@pytest.mark.parametrize("n,eps,q", [
    (n, eps, q) for n in (1, 2, 3) for eps in (1, -1) for q in (2, 3, 4)])
def test_tensor_action_translates_the_class_and_carries_the_partitions(n, eps, q):
    sp = spp(eps, q)
    m1 = eigen_modulus(1, sp)
    assert all(type(cls) is tuple for cls in enumerate_ss_classes(n, sp))
    for chi in enumerate_irr(n, sp):
        assert type(chi.cls) is tuple
        for z in range(m1):
            moved = zhat_act(chi, sp, z)
            assert type(moved.cls) is tuple
            assert moved.cls == zhat_translate(chi.cls, sp, z)
            # the factor with label (k, e) moves to the label of (k, e + z.M_k/M_1)
            want = {canonical_label(k, e + z * (eigen_modulus(k, sp) // m1), sp):
                    (m, lam) for ((k, e), m), lam in zip(chi.cls, chi.parts)}
            assert {lab: (m, lam) for (lab, m), lam in zip(moved.cls, moved.parts)} \
                == want


@pytest.mark.parametrize("images,m1", [
    ("aa", 2),     # both characters translate to the first: not a permutation
    ("ba", 3),     # a 2-cycle, but 2 does not divide M_1 = 3
    ("bca", 2),    # a 3-cycle, longer than M_1 = 2
])
def test_label_table_rejects_a_shift_whose_m1_th_power_is_not_the_identity(
        images, m1):
    chars = "abc"[:len(images)]
    shift = dict(zip(chars, images)).__getitem__
    with pytest.raises(CertificateError):
        label_table(tuple(chars), len, len, shift, m1)


def test_sl_descent_counts_match_oracle():
    assert count_irr_sl(2, spp(1, 3)) == 7
    assert count_irr_sl(3, spp(1, 2)) == 6
    assert count_irr_sl(2, spp(-1, 2)) == 3
    assert count_irr_sl(2, spp(1, 2)) == 3
    assert build_group("SL", 2, 3).conjugacy_classes().count == 7
    assert build_group("SU", 2, 2).conjugacy_classes().count == 3


def test_sl_count_rejects_a_stabilizer_column_that_does_not_divide(monkeypatch):
    sp = spp(1, 3)   # M_1 = 2: raising one stabilizer by 1 adds 2s + 1, odd
    table = charparams.group_table(2, sp)
    stabs = (table.stabs[0] + 1,) + table.stabs[1:]
    corrupt = charparams.LabelTable(table.chars, table.index, table.degrees,
                                    table.centrals, table.shift, stabs)
    assert sum(s * s for s in stabs) % eigen_modulus(1, sp)
    monkeypatch.setattr(charparams, "group_table", lambda n, sp: corrupt)
    with pytest.raises(CertificateError):
        count_irr_sl(2, sp)


@pytest.mark.parametrize("n,eps,q", [
    (2, 1, 3), (3, 1, 2), (2, -1, 2), (3, -1, 2), (2, 1, 5), (2, -1, 3),
    (4, 1, 2), (4, -1, 3),
])
def test_jordan_parameter_count_equals_descent_count(n, eps, q):
    sp = spp(eps, q)
    assert count_jordan_params(n, sp) == count_irr_sl(n, sp)


def _is_ell_power(x: int, ell: int) -> bool:
    while x % ell == 0:
        x //= ell
    return x == 1


def sl_relevant(chi: GlobalChar, n: int, sp, ell: int) -> bool:
    """Adjoint-side relevance test, stated on (s, component group) data.

    Three conditions: the centralizer index and the component group
    A(s) have the same ell-valuation; each factor passes the structural
    ell-prime test; and the ell-part of A(s) fixes the decorated
    parameter.  An independent route to global_relevant.
    """
    a = component_group(chi.cls, sp)
    index = index_order(centralizer_type(chi.cls), n, sp)
    if (ell_val(index, ell) != ell_val(len(a), ell)
            or not _factors_ellprime(chi, sp, ell)):
        return False
    m1 = eigen_modulus(1, sp)
    for z in a:
        if z and _is_ell_power(m1 // math.gcd(z, m1), ell):
            if zhat_act(chi, sp, z) != chi:
                return False
    return True


@pytest.mark.parametrize("n,eps,q,ell", [
    (2, 1, 3, 2), (2, 1, 2, 3), (3, 1, 2, 7), (2, -1, 2, 3), (2, -1, 3, 2),
])
def test_relevance_definitions_agree(n, eps, q, ell):
    sp = spp(eps, q)
    for chi in enumerate_irr(n, sp):
        assert global_relevant(chi, n, sp, ell) == sl_relevant(chi, n, sp, ell)


def from_params(data: dict) -> GlobalChar:
    """Inverse of to_params."""
    cls = tuple(((k, e), m) for k, e, m in data["factors"])
    return GlobalChar(cls, tuple(tuple(p) for p in data["parts"]))


def test_params_round_trip():
    sp = spp(1, 3)
    for chi in enumerate_irr(2, sp):
        data = to_params(chi)
        assert from_params(data) == chi
