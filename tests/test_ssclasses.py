"""Semisimple class labels: orbits of eigenvalue data and central translation."""

from itertools import product

import pytest

from mckaylab import ssclasses
from mckaylab.exactfield import CertificateError, spp
from mckaylab.matrixoracle import build_group
from mckaylab.ssclasses import (
    canonical_label,
    centralizer_order,
    centralizer_type,
    eigen_modulus,
    enumerate_ss_classes,
    labels_of_degree,
    multisets,
    norm_exponent,
    pgl_ss_classes,
    zhat_translate,
)

SP_GL3 = spp(1, 3)
SP_GL2F2 = spp(1, 2)
SP_GU2 = spp(-1, 2)


def component_group(cls: tuple, sp) -> tuple:
    """Central translations fixing the class, a subgroup of Z/M_1, by
    direct search.

    This is the component group of the centralizer image in the adjoint
    quotient; its order divides gcd(rank, M_1).  The package takes it as
    the multiples of the orbit length instead; this is the reference.
    """
    m1 = eigen_modulus(1, sp)
    return tuple(z for z in range(m1) if zhat_translate(cls, sp, z) == cls)


def identity_class(n: int) -> tuple:
    return (((1, 0), n),)


def is_central(cls: tuple) -> bool:
    return len(cls) == 1 and cls[0][0][0] == 1


def test_class_counts():
    assert len(enumerate_ss_classes(2, SP_GL3)) == 6
    assert len(enumerate_ss_classes(3, SP_GL2F2)) == 4
    assert len(enumerate_ss_classes(2, SP_GU2)) == 6
    assert len(enumerate_ss_classes(4, spp(-1, 7))) == 2744


def test_semisimple_count_matches_prime_regular_classes():
    # over F_2 every class of odd order element is semisimple
    G = build_group("GL", 3, 2)
    part = G.conjugacy_classes()
    odd = sum(1 for rep in part.reps if G.element_order(rep) % 2 == 1)
    assert len(enumerate_ss_classes(3, SP_GL2F2)) == odd


def test_labels_of_degree_excludes_embedded_orbits():
    assert labels_of_degree(1, SP_GL3) == (0, 1)
    assert labels_of_degree(2, SP_GL3) == (1, 2, 5)
    for e in labels_of_degree(2, SP_GL3):
        # not fixed by multiplication with eq, so genuinely of degree 2
        assert (e * SP_GL3.eq) % 8 != e


def test_canonical_label_picks_orbit_minimum():
    assert canonical_label(2, 3, SP_GL3) == (2, 1)
    assert canonical_label(2, 6, SP_GL3) == (2, 2)


def test_identity_class_is_central_with_full_centralizer():
    cls = identity_class(2)
    assert is_central(cls)
    assert centralizer_order(centralizer_type(cls), SP_GL3) == 48
    assert norm_exponent(cls, SP_GL3) == 0


def test_norm_exponent_of_order_four_pair():
    # the degree-2 label containing {i, -i}: eigenvalue product is 1
    cls = [c for c in enumerate_ss_classes(2, SP_GL3)
           if c == (((2, 2), 1),)][0]
    assert norm_exponent(cls, SP_GL3) == 0


def test_translation_is_a_group_action():
    m1 = abs(SP_GL3.q - SP_GL3.eps)
    for cls in enumerate_ss_classes(2, SP_GL3):
        assert zhat_translate(cls, SP_GL3, 0) == cls
        for z1 in range(m1):
            for z2 in range(m1):
                assert zhat_translate(zhat_translate(cls, SP_GL3, z1),
                                      SP_GL3, z2) \
                    == zhat_translate(cls, SP_GL3, (z1 + z2) % m1)


def test_translation_shifts_norm_by_rank():
    for sp, n in [(SP_GL3, 2), (SP_GL2F2, 3), (SP_GU2, 2)]:
        m1 = abs(sp.q - sp.eps)
        for cls in enumerate_ss_classes(n, sp):
            base = norm_exponent(cls, sp)
            for z in range(m1):
                assert norm_exponent(zhat_translate(cls, sp, z), sp) \
                    == (base + n * z) % m1


def test_component_group_orders():
    central = identity_class(2)
    assert component_group(central, SP_GL3) == (0,)
    mixed = [c for c in enumerate_ss_classes(2, SP_GL3)
             if len(c) == 2][0]
    assert len(component_group(mixed, SP_GL3)) == 2


@pytest.mark.parametrize("n,eps,q", [
    (n, eps, q) for n in (1, 2, 3, 4) for eps in (1, -1) for q in (2, 3, 4, 5)])
def test_component_group_is_the_multiples_of_the_orbit_length(n, eps, q):
    sp = spp(eps, q)
    m1 = eigen_modulus(1, sp)
    for orbit in pgl_ss_classes(n, sp):
        for cls in orbit:
            assert component_group(cls, sp) == tuple(range(0, m1, len(orbit)))


@pytest.mark.parametrize("n,eps,q", [
    (n, eps, q) for n in (1, 2, 3) for eps in (1, -1) for q in (2, 3, 4, 5, 7)])
def test_pgl_orbits_are_the_translates_by_every_z(n, eps, q):
    sp = spp(eps, q)
    m1 = eigen_modulus(1, sp)
    want, seen = [], set()
    for cls in enumerate_ss_classes(n, sp):
        if cls not in seen:
            orbit = {zhat_translate(cls, sp, z) for z in range(m1)}
            seen.update(orbit)
            want.append(tuple(sorted(orbit)))
    assert pgl_ss_classes(n, sp) == tuple(want)


def test_pgl_orbits_raise_on_a_cycle_that_never_closes(monkeypatch):
    sp = spp(1, 5)
    first = enumerate_ss_classes(2, sp)[0]
    monkeypatch.setattr(ssclasses, "zhat_translate", lambda cls, sp, z: first)
    with pytest.raises(CertificateError, match="does not return"):
        pgl_ss_classes(2, sp)


def test_pgl_orbits_raise_on_a_cycle_length_not_dividing_m1(monkeypatch):
    sp = spp(1, 5)   # M_1 = 4
    classes = enumerate_ss_classes(2, sp)
    cycle = {classes[i]: classes[(i + 1) % 3] for i in range(3)}
    monkeypatch.setattr(ssclasses, "zhat_translate",
                        lambda cls, sp, z: cycle.get(cls, cls))
    with pytest.raises(CertificateError, match="does not return"):
        pgl_ss_classes(2, sp)


def test_pgl_class_counts():
    assert len(pgl_ss_classes(2, SP_GL3)) == 4
    assert len(pgl_ss_classes(2, SP_GU2)) == 2


def test_centralizer_orders_divide_group_order():
    from mckaylab.exactfield import group_order
    for sp, n in [(SP_GL3, 2), (SP_GL2F2, 3), (SP_GU2, 2)]:
        total = group_order(n, sp)
        for cls in enumerate_ss_classes(n, sp):
            assert total % centralizer_order(centralizer_type(cls), sp) == 0


def test_enumeration_has_no_recursion_depth_limit():
    # GL(2,47) has 1127 eigenvalue labels, more than the default recursion
    # limit of 1000 frames.
    assert len(enumerate_ss_classes(2, spp(1, 47))) == 47**2 - 47


def _brute_force_multisets(items, weights, budget):
    """Every multiplicity vector with weighted sum budget, as sorted pairs."""
    out = []
    for mults in product(*(range(budget // w + 1) for w in weights)):
        if sum(m * w for m, w in zip(mults, weights)) == budget:
            out.append(tuple((x, m) for x, m in zip(items, mults) if m))
    return sorted(out)


@pytest.mark.parametrize("weights", [(), (1, 1, 1, 1), (1, 1, 2, 2, 3, 4)],
                         ids=["empty", "ones", "degrees"])
@pytest.mark.parametrize("budget", range(7))
def test_multisets_match_a_brute_force(weights, budget):
    items = [(w, e) for e, w in enumerate(weights)]
    got = multisets(items, weights, budget)
    assert sorted(got) == _brute_force_multisets(items, weights, budget)
    assert len(set(got)) == len(got)
