"""Exact character tables over cyclotomic integers."""

import math
import operator

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mckaylab import dixon
from mckaylab.exactfield import CertificateError
from mckaylab.bijection import explicit_torus
from mckaylab.matrixoracle import MatrixGroup, build_group, normalizer, sylow_subgroup

TABLES = {
    ("SL", 2, 3): [1, 1, 1, 2, 2, 2, 3],
    ("GL", 2, 3): [1, 1, 2, 2, 2, 3, 3, 4],
    ("GL", 3, 2): [1, 3, 3, 6, 7, 8],
    ("GL", 2, 2): [1, 1, 2],
    ("GU", 2, 2): [1, 1, 1, 1, 1, 1, 2, 2, 2],
}


def fresh_view(G):
    """A new view of the matrix group G from its fields: nothing that G has
    computed and kept (regular representation, classes, table) comes along."""
    return MatrixGroup(G.kind, G.n, G.sp, G.F, G.v0, elements=G.elements,
                       generators=G.generators, identity=G.identity, mul=G.mul,
                       inv=G.inv, right=G.right, perms=G.perms)


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
    class_of = lambda x: part.class_of[view.index[x]]
    mats = []
    for i in range(n):
        m = [[0] * n for _ in range(n)]
        for x in (x for x in view.elements if class_of(x) == i):
            for k, z in enumerate(part.reps):
                m[class_of(view.mul(view.inv(x), z))][k] += 1
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
    assert dixon._class_matrices(view, part)[0] == reference_class_matrices(view, part)


def _oracle_normalizers(kind, n, q, ell):
    """The Sylow and torus normalizers NP and NT of an oracle cell."""
    G = build_group(kind, n, q)
    return (normalizer(G, sylow_subgroup(G, ell)),
            normalizer(G, explicit_torus(G, ell)))


@pytest.mark.parametrize("view", [
    lambda: build_group("GL", 2, 3),
    lambda: build_group("GU", 2, 3),
    lambda: build_group("GL", 3, 2),
    lambda: build_group("GU", 3, 2),
    lambda: build_group("GL", 2, 4),
    lambda: _oracle_normalizers("GL", 2, 3, 2)[0],
    lambda: _oracle_normalizers("GL", 2, 3, 2)[1],
    lambda: _oracle_normalizers("GU", 2, 3, 5)[0],
    lambda: _oracle_normalizers("GU", 2, 3, 5)[1],
], ids=["GL(2,3)", "GU(2,3)", "GL(3,2)", "GU(3,2)", "GL(2,4)",
        "NP of GL(2,3) ell=2", "NT of GL(2,3) ell=2",
        "NP of GU(2,3) ell=5", "NT of GU(2,3) ell=5"])
def test_power_walks_give_orders_and_inverse_classes(view):
    view = view()
    part = view.conjugacy_classes()
    walks = dixon._class_matrices(view, part)[1]
    for z, walk in zip(part.reps, walks):
        powers = [view.identity]
        while len(powers) < view.element_order(z):
            powers.append(view.mul(powers[-1], z))
        assert walk == [part.class_of[view.index[x]] for x in powers]
        assert walk[-1] == part.class_of[view.index[view.inv(z)]]
    orders = [view.element_order(z) for z in part.reps]
    assert dixon.character_table(view).ctx.N == math.lcm(*orders)


def test_table_reads_only_positions_once_the_regular_representation_exists():
    G = build_group("GL", 3, 2)
    fresh = fresh_view(G)
    fresh.regular   # the tree of words over the permutations that the build recorded

    def refuse(*args):
        raise AssertionError("dixon multiplied matrices")

    fresh.right = fresh.mul = refuse
    table = dixon.character_table(fresh)
    assert table.part.reps == G.conjugacy_classes().reps
    assert [c.values for c in table.chars] \
        == [c.values for c in dixon.character_table(G).chars]


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
    inv_class = [part.class_of[G.index[G.inv(rep)]] for rep in part.reps]
    for chi in table.chars:
        assert chi.degree == ctx.as_int(chi.values[0])
        for k, values in enumerate(chi.values):
            assert ctx.conj(chi.values[k]) == chi.values[inv_class[k]]


def trivial_character(view, ctx):
    part = view.conjugacy_classes()
    return dixon.ClassFunction(view, part, ctx, (ctx.one,) * part.count)


def restrict(cf, sub_view):
    part = sub_view.conjugacy_classes()
    values = tuple(cf.values[cf.part.class_of[cf.view.index[rep]]] for rep in part.reps)
    return dixon.ClassFunction(sub_view, part, cf.ctx, values)


def test_induction_from_sylow():
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 2)
    table = dixon.character_table(G)
    triv = trivial_character(P, table.ctx)
    ind = dixon.induce(triv, G)
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
    fresh = fresh_view(build_group("GL", 2, 3))
    with pytest.raises(CertificateError):
        dixon.character_table(fresh)


def scalar_steps(mats, r):
    """The classes l whose matrix acts as a scalar on every space of dim > 1
    that the split holds when it reaches l.  Those spaces are spanned by the
    central characters (omegas) that agree on every class before l."""
    omegas = [[x * pow(v[0], -1, r) % r for x in v]
              for v in dixon._split_common_eigenspaces(mats, r)]
    groups, steps = [omegas], []
    for l in range(len(mats)):
        big = [g for g in groups if len(g) > 1]
        if not big:
            break
        if all(len({w[l] for w in g}) == 1 for g in big):
            steps.append(l)
        groups = [[w for w in g if w[l] == x]
                  for g in groups for x in dict.fromkeys(w[l] for w in g)]
    return steps


@pytest.mark.parametrize("which", [0, 1], ids=["identity on the start space",
                                               "a class on proper subspaces"])
def test_a_class_matrix_kept_by_the_ratio_test_is_still_checked(monkeypatch, which):
    """On a common eigenvector v the eigenvalue of class l is v[l]/v[0], so
    the split keeps a space from its coordinates alone.  One wrong entry of
    a class matrix that is a scalar on every space it meets, and so is read
    nowhere else, fails the row check m.b = lam.b."""
    G = build_group("GU", 2, 2)
    part = G.conjugacy_classes()
    mats, walks = dixon._class_matrices(G, part)
    r = dixon._find_prime(math.lcm(*map(len, walks)), G.order, part.count)
    l = scalar_steps(mats, r)[which]
    assert l > 0 if which else l == 0
    bad = [[list(row) for row in m] for m in mats]
    bad[l][1][0] += 1
    monkeypatch.setattr(dixon, "_class_matrices", lambda view, part: (bad, walks))
    with pytest.raises(CertificateError, match="vector escapes the invariant subspace"):
        dixon.character_table(fresh_view(G))


def test_an_eigenspace_that_vanishes_at_the_identity_class_is_refused():
    """A common eigenvector v has v[0] != 0, since the eigenvalue of class l
    is v[l]/v[0].  The second matrix leaves the 7-eigenspace span(e1, e2),
    zero at coordinate 0, for the third to meet."""
    one = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mats = [one, [[5, 0, 0], [0, 7, 0], [0, 0, 7]], one]
    with pytest.raises(CertificateError, match="vanishes at the identity class"):
        dixon._split_common_eigenspaces(mats, 11)


def test_a_shifted_spectrum_fails_the_norm(monkeypatch):
    """One eigenvalue of one class moved onto another: the multiplicities
    still sum to the degree, but the character's norm is no longer one."""
    right = dixon._spectrum
    shifted = []

    def shift_one(col, idft, step, r):
        spectrum = right(col, idft, step, r)
        if not shifted and len(spectrum) == 2:
            shifted.append(spectrum)
            (e, m), (_, m2) = spectrum
            spectrum = [(e, m), (e, m2)]
        return spectrum

    monkeypatch.setattr(dixon, "_spectrum", shift_one)
    fresh = fresh_view(build_group("GL", 2, 3))
    with pytest.raises(CertificateError, match="character norm is not one"):
        dixon.character_table(fresh)
    assert shifted


def test_a_broken_power_walk_gets_its_own_dft(monkeypatch):
    """A class whose power walk is an earlier class's read at a unit reuses
    that spectrum; once one entry of its walk is changed the check fails and
    the class runs its own inverse DFT."""
    G = build_group("GL", 2, 3)
    part = G.conjugacy_classes()
    mats, walks = dixon._class_matrices(G, part)
    # a class of order 8 that is the inverse of an earlier class
    k = next(k for k, walk in enumerate(walks)
             if len(walk) == 8 and walk[-1] < k)
    broken = list(walks[k])
    broken[2] = 0
    orders = []   # the order of each class that runs its own DFT
    right = dixon._spectrum

    def record(col, idft, step, r):
        orders.append(len(col))
        return right(col, idft, step, r)

    def first_character_dfts(walks_seen):
        orders.clear()
        monkeypatch.setattr(dixon, "_class_matrices",
                            lambda view, part: (mats, walks_seen))
        monkeypatch.setattr(dixon, "_spectrum", record)
        try:
            dixon.character_table(fresh_view(G))
        except CertificateError:
            pass
        # every character starts with the identity class, of order 1
        return orders[:orders.index(1, 1)] if orders.count(1) > 1 else orders

    assert first_character_dfts(walks).count(8) == 1
    corrupt = walks[:k] + [broken] + walks[k + 1:]
    assert first_character_dfts(corrupt).count(8) == 2
