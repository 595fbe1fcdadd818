"""Exact character tables over cyclotomic integers."""

import dataclasses
import operator

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mckaylab import dixon
from mckaylab.exactfield import CertificateError
from mckaylab.matrixoracle import build_group, sylow_subgroup

TABLES = {
    ("SL", 2, 3): [1, 1, 1, 2, 2, 2, 3],
    ("GL", 2, 3): [1, 1, 2, 2, 2, 3, 3, 4],
    ("GL", 3, 2): [1, 3, 3, 6, 7, 8],
    ("GL", 2, 2): [1, 1, 2],
    ("GU", 2, 2): [1, 1, 1, 1, 1, 1, 2, 2, 2],
}


@pytest.mark.parametrize("key", sorted(TABLES))
def test_degree_multisets(key):
    kind, n, q = key
    G = build_group(kind, n, q)
    table = dixon.character_table(G)
    assert sorted(table.degrees) == sorted(TABLES[key])
    assert sum(d * d for d in table.degrees) == G.order


def reference_class_matrices(view, part):
    """Class-sum matrices by a loop over class members, with view.mul."""
    n = part.count
    mats = []
    for i in range(n):
        m = [[0] * n for _ in range(n)]
        for x in part.members[i]:
            for k, z in enumerate(part.reps):
                m[part.class_map[view.mul(view.inv(x), z)]][k] += 1
        mats.append(m)
    return mats


@pytest.mark.parametrize("view", [
    lambda: build_group("GL", 2, 3),
    lambda: build_group("GU", 2, 3),
    lambda: sylow_subgroup(build_group("GL", 2, 3), 2),
], ids=["GL(2,3)", "GU(2,3)", "Sylow-2 of GL(2,3)"])
def test_class_matrices_match_a_plain_loop(view):
    view = view()
    part = view.conjugacy_classes()
    assert dixon._class_matrices(view, part) == reference_class_matrices(view, part)


def test_row_orthogonality():
    G = build_group("GL", 2, 3)
    table = dixon.character_table(G)
    for i, chi in enumerate(table.chars):
        for j, psi in enumerate(table.chars):
            assert dixon.inner(chi, psi) == (1 if i == j else 0)


def test_table_is_deterministic():
    G = build_group("SL", 2, 3)
    t1 = dixon.character_table(G)
    t2 = dixon.character_table(G)
    assert [c.values for c in t1.chars] == [c.values for c in t2.chars]


def test_character_values_at_identity_and_inverses():
    G = build_group("GL", 3, 2)
    table = dixon.character_table(G)
    ctx = table.ctx
    part = table.part
    inv_class = [part.class_map[G.inv(rep)] for rep in part.reps]
    for chi in table.chars:
        assert chi.degree == ctx.as_int(chi.values[0])
        for k, values in enumerate(chi.values):
            assert ctx.conj(chi.values[k]) == chi.values[inv_class[k]]


def trivial_character(view, ctx):
    part = view.conjugacy_classes()
    return dixon.ClassFunction(view, part, ctx, (ctx.one,) * part.count)


def restrict(cf, sub_view):
    part = sub_view.conjugacy_classes()
    values = tuple(cf.values[cf.part.class_map[rep]] for rep in part.reps)
    return dixon.ClassFunction(sub_view, part, cf.ctx, values)


def test_induction_from_sylow():
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 2)
    table = dixon.character_table(G)
    triv = trivial_character(P, table.ctx)
    ind = dixon.induce(triv, G, table.part)
    assert ind.degree == G.order // P.order
    assert dixon.inner(ind, trivial_character(G, table.ctx)) == 1
    # Frobenius reciprocity against every irreducible
    for chi in table.chars:
        res = restrict(chi, P)
        assert dixon.inner(ind, chi) == dixon.inner(res, triv)


def test_restriction_preserves_degree():
    G = build_group("SL", 2, 3)
    table = dixon.character_table(G)
    P = sylow_subgroup(G, 3)
    for chi in table.chars:
        assert restrict(chi, P).degree == chi.degree


def test_irr_ellprime_counts():
    G = build_group("GL", 2, 3)
    table = dixon.character_table(G)
    assert len(dixon.irr_ellprime(table, 2)) == 4
    assert len(dixon.irr_ellprime(table, 3)) == 6


def test_cyc_context_arithmetic():
    ctx = dixon.CycContext(12)
    zeta = ctx.root_of_unity(1)
    acc = ctx.one
    for _ in range(12):
        acc = ctx.mul(acc, zeta)
    assert acc == ctx.one
    assert ctx.root_of_unity(6) == ctx.scal(-1, ctx.one)
    assert ctx.root_of_unity(2) == ctx.mul(zeta, zeta)
    assert ctx.as_int(ctx.from_int(5)) == 5
    with pytest.raises(AssertionError):
        ctx.divide_int(ctx.from_int(3), 2)


def test_cyclotomic_matches_sympy_up_to_200():
    x = sympy.Symbol("x")
    for N in range(1, 201):
        ref = sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs()
        assert dixon._cyclotomic(N) == tuple(int(c) for c in reversed(ref)), N


def test_cyclotomic_rejects_a_non_positive_order():
    with pytest.raises(CertificateError):
        dixon._cyclotomic(0)


def reference_charpoly(a, r):
    """Monic characteristic polynomial coefficients c1..cm, Faddeev-LeVerrier.

    O(m^4) and needs r > m, to divide by 1..m.
    """
    m = len(a)
    cur = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    coeffs = []
    for k in range(1, m + 1):
        cols = tuple(zip(*cur))
        am = [[sum(map(operator.mul, row, col)) % r for col in cols] for row in a]
        c = (-sum(am[i][i] for i in range(m)) * pow(k, -1, r)) % r
        coeffs.append(c)
        if k < m:
            cur = [
                [(am[i][j] + (c if i == j else 0)) % r for j in range(m)]
                for i in range(m)
            ]
    return coeffs


@st.composite
def sparse_matrix_mod_prime(draw):
    """A square matrix over F_r, mostly zero, so that the Hessenberg
    reduction meets zero subdiagonal pivots and has to swap rows."""
    r = draw(st.sampled_from((11, 13, 37, 101, 1009)))
    m = draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.just(0), st.integers(0, r - 1))
    return draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=m, max_size=m)), r


@settings(max_examples=400, deadline=None)
@given(sparse_matrix_mod_prime())
def test_hessenberg_charpoly_matches_faddeev_leverrier(case):
    a, r = case
    assert dixon._charpoly(a, r) == reference_charpoly(a, r)


def test_wrong_charpoly_fails_the_table(monkeypatch):
    right = dixon._charpoly

    def wrong(a, r):
        coeffs = right(a, r)
        coeffs[-1] = (coeffs[-1] + 1) % r
        return coeffs

    monkeypatch.setattr(dixon, "_charpoly", wrong)
    fresh = dataclasses.replace(build_group("GL", 2, 3), _table=None)
    with pytest.raises(CertificateError):
        dixon.character_table(fresh)
