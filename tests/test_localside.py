"""Torus-normalizer side: shapes, degrees, transport of parameters."""

import pytest

from mckaylab.exactfield import spp
from mckaylab.charparams import (
    degree,
    enumerate_irr,
    global_relevant,
    zhat_act,
)
from mckaylab.localside import (
    enumerate_ellprime_params,
    enumerate_local_irr,
    local_central_label,
    local_degree,
    local_order,
    local_relevant,
    local_table,
    local_zhat_act,
    torus_data,
    transport,
)
from mckaylab.charparams import count_ellprime
from mckaylab.ssclasses import norm_exponent


def test_torus_data_shapes():
    td = torus_data(2, spp(1, 3), 2)
    assert (td.d0, td.a, td.m, td.Q) == (2, 1, 0, 8)
    td = torus_data(3, spp(1, 2), 7)
    assert (td.d0, td.a, td.m, td.Q) == (3, 1, 0, 7)
    td = torus_data(3, spp(1, 2), 3)
    assert (td.d0, td.a, td.m, td.Q) == (2, 1, 1, 3)
    td = torus_data(2, spp(-1, 2), 3)
    assert (td.d0, td.a, td.m, td.Q) == (1, 2, 0, 3)
    td = torus_data(2, spp(1, 3), 13)
    assert td.a == 0


def test_torus_data_rejects_ell_dividing_q():
    with pytest.raises(ValueError):
        torus_data(2, spp(1, 3), 3)


def test_local_orders():
    assert local_order(2, spp(1, 3), 2) == 16
    assert local_order(3, spp(1, 2), 7) == 21
    assert local_order(3, spp(1, 2), 3) == 6
    assert local_order(2, spp(-1, 2), 3) == 18
    # degenerate: the normalizer is the whole group
    assert local_order(2, spp(1, 3), 13) == 48


FROZEN_DEGREES = {
    (2, 1, 3, 2): [1, 1, 1, 1, 2, 2, 2],
    (2, 1, 2, 3): [1, 1, 2],
    (3, 1, 2, 7): [1, 1, 1, 3, 3],
}


@pytest.mark.parametrize("key", sorted(FROZEN_DEGREES))
def test_frozen_local_degree_multisets(key):
    n, eps, q, ell = key
    sp = spp(eps, q)
    degs = sorted(local_degree(psi, n, sp, ell)
                  for psi in enumerate_local_irr(n, sp, ell))
    assert degs == FROZEN_DEGREES[key]


@pytest.mark.parametrize("n,eps,q,ell", [
    (2, 1, 3, 2), (3, 1, 2, 3), (3, -1, 2, 3), (2, -1, 3, 2), (4, 1, 3, 2),
    (2, 1, 3, 13), (3, -1, 4, 5),
])
def test_local_degree_mass(n, eps, q, ell):
    sp = spp(eps, q)
    chars = enumerate_local_irr(n, sp, ell)
    assert sum(local_degree(psi, n, sp, ell) ** 2 for psi in chars) \
        == local_order(n, sp, ell)


def test_gu3_cell_shape():
    sp = spp(-1, 2)
    chars = enumerate_local_irr(3, sp, 3)
    assert len(chars) == 22
    assert sum(local_degree(psi, 3, sp, 3) ** 2 for psi in chars) == 162


def test_degenerate_cell_reduces_to_global_side():
    sp = spp(1, 3)
    local = enumerate_local_irr(2, sp, 13)
    degs = sorted(local_degree(psi, 2, sp, 13) for psi in local)
    want = sorted(degree(chi, 2, sp) for chi in enumerate_irr(2, sp))
    assert degs == want


def _local_action_failures(n, eps, q, ell) -> list:
    sp = spp(eps, q)
    m1 = abs(sp.q - sp.eps)
    bad = []
    for psi in enumerate_local_irr(n, sp, ell):
        deg = local_degree(psi, n, sp, ell)
        nu = local_central_label(psi, n, sp, ell)
        moved = [local_zhat_act(psi, n, sp, ell, z) for z in range(m1)]
        if moved[0] != psi:
            bad.append((psi, 0))
        for z in range(m1):
            if (local_degree(moved[z], n, sp, ell) != deg
                    or local_central_label(moved[z], n, sp, ell) != (nu + n * z) % m1
                    or any(local_zhat_act(moved[z], n, sp, ell, z2)
                           != moved[(z + z2) % m1] for z2 in range(m1))):
                bad.append((psi, z))
    return bad


def test_local_translation_is_an_action_matching_central_labels():
    """local_table keeps only the translate by 1 and derives the others as
    its powers, which is sound exactly because this is an action."""
    cells = [(n, eps, q, ell) for n in (1, 2, 3) for eps in (1, -1)
             for q in (2, 3, 4, 5) for ell in (2, 3, 5, 7) if q % ell]
    assert len(cells) == 72
    failures = {cell: bad for cell in cells
                if (bad := _local_action_failures(*cell))}
    assert failures == {}


def test_transport_on_rank_two_cell():
    n, sp, ell = 2, spp(1, 3), 2
    rel = [chi for chi in enumerate_irr(n, sp)
           if global_relevant(chi, n, sp, ell)]
    assert sorted(degree(chi, n, sp) for chi in rel) == [1, 1, 2, 3, 3]
    images = [transport(chi, n, sp, ell) for chi in rel]
    assert len(set(images)) == 5
    assert sorted(local_degree(psi, n, sp, ell) for psi in images) \
        == [1, 1, 1, 1, 2]
    target = {psi for psi in enumerate_local_irr(n, sp, ell)
              if local_relevant(psi, n, sp, ell)}
    assert set(images) == target
    for chi, psi in zip(rel, images):
        assert norm_exponent(chi.cls, sp) == local_central_label(psi, n, sp, ell)


def test_transport_commutes_with_translation():
    n, sp, ell = 2, spp(-1, 2), 3
    m1 = abs(sp.q - sp.eps)
    for chi in enumerate_irr(n, sp):
        if not global_relevant(chi, n, sp, ell):
            continue
        psi = transport(chi, n, sp, ell)
        for z in range(m1):
            assert transport(zhat_act(chi, sp, z), n, sp, ell) \
                == local_zhat_act(psi, n, sp, ell, z)


@pytest.mark.parametrize("n,eps,q,ell", [
    (2, 1, 3, 2), (3, 1, 2, 3), (2, -1, 2, 3), (3, -1, 2, 5),
])
def test_parameter_triples_count_the_ellprime_characters(n, eps, q, ell):
    sp = spp(eps, q)
    triples = enumerate_ellprime_params(n, sp, ell)
    assert len(triples) == count_ellprime(n, sp, ell)
    assert len(set(triples)) == len(triples)


def test_local_ellprime_counts_match_global():
    for n, eps, q, ell in [(2, 1, 3, 2), (3, 1, 2, 7), (2, -1, 2, 3)]:
        sp = spp(eps, q)
        local = len(local_table(n, sp, ell).ellprime(ell))
        assert local == count_ellprime(n, sp, ell)


def test_local_enumeration_has_no_recursion_depth_limit():
    # Z/(47^2 - 1) has 1127 eq-power orbits, more than the default recursion
    # limit of 1000 frames.
    n, sp, ell = 2, spp(1, 47), 3
    chars = enumerate_local_irr(n, sp, ell)
    assert sum(local_degree(psi, n, sp, ell) ** 2 for psi in chars) \
        == local_order(n, sp, ell)
