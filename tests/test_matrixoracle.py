"""Brute-force matrix groups: construction, classes, subgroup machinery."""

import math
import random
from collections import deque
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from mckaylab import gggr, matrixoracle
from mckaylab.bijection import explicit_torus
from mckaylab.exactfield import (CertificateError, build_field, ell_part,
                                 prime_factors)
from mckaylab.matrixoracle import (
    OracleError,
    build_group,
    closure,
    conjugacy_partition,
    find_generators,
    form_matrix,
    frobenius_map,
    gamma_twist,
    identity_matrix,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    normalizer,
    right_mul,
    subgroup_closure,
    subgroup_view,
    sylow_subgroup,
    unitriangular_inv,
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

# the groups of the benchmark's oracle cells
ORACLE_GROUPS = [("GL", 2, 2), ("GL", 2, 3), ("GL", 2, 4), ("GL", 2, 5),
                 ("GL", 3, 2), ("GU", 2, 2), ("GU", 2, 3)]
NORMALIZER_GROUPS = ORACLE_GROUPS + [("SL", 2, 3), ("SL", 2, 5)]


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


@pytest.mark.parametrize("kind,n,q", [
    ("SL", 3, 2), ("SU", 2, 3), ("SU", 3, 2), ("SU", 2, 4)])
def test_special_groups_are_the_determinant_one_elements(kind, n, q):
    G = build_group(kind.replace("S", "G", 1), n, q)
    S = build_group(kind, n, q)
    assert S.elements == tuple(g for g in G.elements if mat_det(g, G.F) == 1)


@pytest.mark.parametrize("key", sorted(KNOWN) + [("GU", 3, 2)])
def test_groups_have_few_generators(key):
    assert len(build_group(*key).generators) <= 10


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
    reps = G.conjugacy_classes().reps
    assert math.lcm(*map(G.element_order, reps)) == 12
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


@pytest.mark.parametrize("key", ORACLE_GROUPS, ids="{0[0]}({0[1]},{0[2]})".format)
def test_sylow_subgroups_are_ell_groups_of_full_order(key):
    G = build_group(*key)
    for ell in prime_factors(G.order):
        P = sylow_subgroup(G, ell)
        assert P.order == ell_part(G.order, ell)[0]
        assert all(ell_part(G.element_order(g), ell)[1] == 1 for g in P.elements)


def test_sylow_subgroup_rejects_a_step_that_is_not_an_ell_group(monkeypatch):
    G = build_group("GL", 2, 3)
    trivial = subgroup_closure(G, ())
    monkeypatch.setattr(matrixoracle, "subgroup_closure",
                        lambda parent, gens: parent if gens else trivial)
    with pytest.raises(OracleError, match="not a power of 2"):
        sylow_subgroup(G, 2)


def test_sylow_at_prime_not_dividing_is_trivial():
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 5)
    assert P.order == 1
    assert normalizer(G, P) is G


def test_subgroup_views_are_interned_on_the_parent():
    G = build_group("GL", 2, 3)
    assert subgroup_view(G, G.generators[1:], G.elements, G.perms[1:]) is G
    assert subgroup_closure(G, reversed(G.elements)) is G
    P = sylow_subgroup(G, 3)
    assert subgroup_closure(G, reversed(P.elements)) is P
    assert subgroup_view(G, (), P.elements, ()) is P
    assert subgroup_closure(G, P.elements) is P
    assert subgroup_closure(P, P.elements) is P


@pytest.mark.parametrize("key", [("GL", 2, 4), ("GU", 2, 3), ("SU", 3, 2)])
def test_group_inverse_is_two_sided(key):
    G = build_group(*key)
    for g in G.elements:
        gi = G.inv(g)
        assert G.mul(g, gi) == G.identity == G.mul(gi, g)


def _plain_bfs_depths(start, maps):
    """Each point reachable from start under the maps, with its distance."""
    depth, queue = {start: 0}, deque([start])
    while queue:
        x = queue.popleft()
        for y in (f(x) for f in maps):
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)
    return depth


def test_orbit_tree_matches_a_plain_breadth_first_search():
    rng = random.Random(24)
    for _ in range(300):
        size = rng.randrange(1, 40)
        perms = [rng.sample(range(size), size) for _ in range(rng.randrange(4))]
        maps = [perm.__getitem__ for perm in perms]
        start = rng.randrange(size)
        tree = matrixoracle._orbit(start, maps, size)
        depth = _plain_bfs_depths(start, maps)
        assert set(tree) == set(depth)
        assert tree[start] == (start, None)
        position = {x: i for i, x in enumerate(tree)}
        assert position[start] == 0
        for x, (parent, k) in tree.items():
            if x != start:
                assert position[parent] < position[x]
                assert maps[k](parent) == x
                assert depth[x] == depth[parent] + 1


def test_orbit_raises_past_its_limit():
    cycle = [1, 2, 3, 4, 0]
    assert len(matrixoracle._orbit(0, [cycle.__getitem__], 5)) == 5
    with pytest.raises(OracleError, match="limit 4"):
        matrixoracle._orbit(0, [cycle.__getitem__], 4)


def reference_partition(view):
    """Conjugacy classes by an orbit search written with view.mul alone."""
    classes, seen = [], set()
    for start in view.elements:
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for g in view.generators:
                y = view.mul(view.mul(g, x), view.inv(g))
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (c[0] != view.identity, len(c), c[0]))
    return classes


@pytest.mark.parametrize("key", [("GL", 2, 3), ("GU", 2, 3), ("GL", 2, 4)])
def test_conjugacy_partition_matches_a_plain_orbit_search(key):
    G = build_group(*key)
    for view in (G, sylow_subgroup(G, 2)):
        part = conjugacy_partition(view)
        classes = reference_partition(view)
        assert part.sizes == tuple(map(len, classes))
        assert part.reps == tuple(c[0] for c in classes)
        owner = {x: k for k, c in enumerate(classes) for x in c}
        assert {x: part.class_of[view.index[x]] for x in view.elements} == owner


def test_quaternion_subgroup_of_sl2_3_is_normal():
    G = build_group("SL", 2, 3)
    gens = [g for g in G.elements if G.element_order(g) == 4]
    Q = subgroup_closure(G, gens)
    assert Q.order == 8
    assert normalizer(G, Q).order == 24


def reference_normalizer(view, sub):
    """{g : g S g^-1 = S} by scanning every element of view."""
    sub_set = set(sub.elements)
    gens = sub.generators or sub.elements
    return subgroup_closure(view, [
        g for g in view.elements
        if all(view.mul(view.mul(g, s), view.inv(g)) in sub_set for s in gens)])


@pytest.mark.parametrize("key", NORMALIZER_GROUPS, ids="{0[0]}({0[1]},{0[2]})".format)
def test_normalizer_matches_the_whole_group_scan(key):
    G = build_group(*key)
    subs = [sylow_subgroup(G, ell) for ell in prime_factors(G.order)]
    subs += [subgroup_closure(G, [rep]) for rep in G.conjugacy_classes().reps]
    for sub in subs:
        got = normalizer(G, sub)
        want = reference_normalizer(G, sub)
        assert got.elements == want.elements
        assert got is want


def test_normalizer_rejects_a_short_schreier_closure(monkeypatch):
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 2)
    walk = matrixoracle.closure

    def first_candidate_only(candidates, right, identity, limit):
        return walk(islice(candidates, 1), right, identity, limit)

    monkeypatch.setattr(matrixoracle, "closure", first_candidate_only)
    with pytest.raises(OracleError, match="generators reach [0-9]+ of 16 elements"):
        normalizer(G, P)


def test_normalizer_rejects_a_foreign_subgroup():
    G, H = build_group("GL", 2, 3), build_group("GL", 2, 5)
    with pytest.raises(OracleError, match="outside the group"):
        normalizer(G, sylow_subgroup(H, 3))


def _torus_normalizer(kind, n, q, ell):
    G = build_group(kind, n, q)
    return normalizer(G, explicit_torus(G, ell))


@pytest.mark.parametrize("view", [
    lambda: build_group("GL", 2, 4),
    lambda: build_group("GU", 2, 3),
    lambda: _torus_normalizer("GL", 2, 5, 3),
], ids=["GL(2,4)", "GU(2,3)", "NT of GL(2,5) ell=3"])
def test_right_perms_are_right_multiplication_on_positions(view):
    view = view()
    index, reps = view.index, view.conjugacy_classes().reps
    got = dict(view.right_perms(reps))
    assert sorted(got) == sorted(reps)
    for z, perm in got.items():
        assert perm == [index[x] for x in map(view.right(z), view.elements)]
    # the view keeps the generators' permutations and a tree of words
    # (position -> (parent, generator number)), nothing per target
    perms, tree = view.perms, view.regular
    assert perms == tuple(tuple(index[x] for x in map(view.right(g), view.elements))
                          for g in view.generators)
    root = index[view.identity]
    assert sorted(tree) == list(range(view.order))
    assert tree[root] == (root, None)
    assert all(perms[k][parent] == x for x, (parent, k) in tree.items()
               if x != root)


def _short_view():
    """GL(2,3) with a first generator alone, which does not generate it."""
    G = build_group("GL", 2, 3)
    return matrixoracle.GroupView(
        elements=G.elements, generators=G.generators[:1], identity=G.identity,
        mul=G.mul, inv=G.inv, right=G.right, perms=G.perms[:1])


def test_right_perms_need_generators_that_reach_every_element():
    with pytest.raises(OracleError, match="reach"):
        next(_short_view().right_perms([build_group("GL", 2, 3).identity]))


def test_conjugacy_classes_need_generators_that_reach_every_element():
    with pytest.raises(OracleError, match="generators reach"):
        _short_view().conjugacy_classes()


def _in_group(kind, n, q, make=lambda G: G):
    """A view made from a built group, with the group's field."""
    G = build_group(kind, n, q)
    return make(G), G.F


@pytest.mark.parametrize("make", [
    lambda: _in_group("GL", 2, 3),
    lambda: _in_group("GU", 2, 3),
    lambda: _in_group("GU", 2, 3, lambda G: normalizer(G, explicit_torus(G, 5))),
    lambda: _in_group("GL", 3, 3, lambda G: subgroup_closure(
        G, sorted(gggr.u2_elements((3,), G.F)))),
], ids=["GL(2,3)", "GU(2,3)", "NT of GU(2,3) ell=5", "U_2 of GL(3,3) (3)"])
def test_generator_maps_match_mat_mul(make):
    view, F = make()
    elements = view.elements
    assert view.order > 1 and len(view.generator_maps) == len(view.generators)
    for g, (left, right_inv, conj) in zip(view.generators, view.generator_maps):
        g_inv = mat_inv(g, F)
        for i, x in enumerate(elements):
            assert elements[left[i]] == mat_mul(g, x, F)
            assert elements[right_inv[i]] == mat_mul(x, g_inv, F)
            assert elements[conj[i]] == mat_mul(mat_mul(g, x, F), g_inv, F)


def gamma_in(G, g):
    """gamma_twist of g, asserted to lie in G."""
    out = gamma_twist(g, G.F)
    assert out in G.index
    return out


def test_automorphisms_are_multiplicative():
    G = build_group("GU", 2, 2)
    sample = G.elements[:6]
    for g in sample:
        for h in sample:
            assert gamma_in(G, G.mul(g, h)) \
                == G.mul(gamma_in(G, g), gamma_in(G, h))
            assert frobenius_map(G, G.mul(g, h)) \
                == G.mul(frobenius_map(G, g), frobenius_map(G, h))


@pytest.mark.parametrize("kind,n,q", [("GL", 2, 3), ("GU", 2, 3), ("GL", 3, 2),
                                      ("GU", 3, 2), ("GL", 2, 4)])
def test_gamma_twist_is_conjugation_by_the_form(kind, n, q):
    G = build_group(kind, n, q)
    F = G.F
    v0 = form_matrix(n, F)
    v0_inv = mat_inv(v0, F)
    for g in G.elements:
        h = mat_inv(tuple(zip(*g)), F)
        assert gamma_twist(g, F) == mat_mul(mat_mul(v0, h, F), v0_inv, F)


@pytest.mark.parametrize("lam,q", [((3, 1), 4), ((4,), 3), ((3,), 3), ((3,), 5)])
def test_signed_reversal_is_conjugation_by_the_form(lam, q):
    # n = 4 over GF(4) and GF(3), and n = 3 over GF(3) and GF(5), where the
    # signs of odd n and odd characteristic meet
    F = build_field(*{3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
    v0 = form_matrix(sum(lam), F)
    v0_inv = mat_inv(v0, F)
    for h in gggr.u2_elements(lam, F):
        assert matrixoracle.signed_reversal(h, F) == mat_mul(
            mat_mul(v0, h, F), v0_inv, F)


@pytest.mark.parametrize("lam,q", [((3, 1), 4), ((4,), 3), ((2, 2), 3)])
def test_unitriangular_inv_matches_mat_inv_on_transposed_u2(lam, q):
    F = build_field(*{3: (3, 1), 4: (2, 2)}[q])
    for g in gggr.u2_elements(lam, F):
        gt = tuple(zip(*g))
        assert unitriangular_inv(gt, F) == mat_inv(gt, F)


def test_unitriangular_inv_past_the_table_limit():
    # GF(131) has no tables: the row operations use F.mul and F.add
    F = build_field(131, 1)
    rng = random.Random(131)
    for _ in range(20):
        a = tuple(tuple(int(i == j) if j <= i else rng.randrange(131)
                        for j in range(4)) for i in range(4))
        assert unitriangular_inv(a, F) == mat_inv(a, F)


@pytest.mark.parametrize("a", [((1, 1), (0, 2)), ((1, 0), (1, 1)),
                               ((2, 1, 0), (0, 1, 0), (0, 0, 1)),
                               ((1, 0, 0), (0, 1, 0), (0, 1, 1))])
def test_unitriangular_inv_refuses_other_matrices(a):
    # a diagonal entry 2, or a nonzero entry below the diagonal
    with pytest.raises(CertificateError, match="not upper unitriangular"):
        unitriangular_inv(a, build_field(3, 1))


def test_closure_raises_past_its_limit():
    G = build_group("GL", 2, 3)
    kept, elements, perms = closure(G.generators, G.right, G.identity, limit=48)
    assert (kept, elements, perms) == (G.generators, G.elements, G.perms)
    with pytest.raises(OracleError, match="exceeded limit 47"):
        closure(G.generators, G.right, G.identity, limit=47)

    def generators_then_stop():
        yield from G.generators
        raise AssertionError("the walk read past its limit")

    found = find_generators(generators_then_stop(), G.right, G.identity, 48)
    assert found == (G.generators, G.elements, G.perms)


def test_each_product_is_made_once_by_the_build_and_none_by_the_classes(monkeypatch):
    """Building GL(3,3) multiplies each element by each kept generator once;
    the classes and the representatives' permutations then read positions."""
    build_group.cache_clear()
    products = 0
    multiplier = matrixoracle.right_mul

    def counted_right_mul(b, F):
        times_b = multiplier(b, F)

        def counted(a):
            nonlocal products
            products += 1
            return times_b(a)

        return counted

    monkeypatch.setattr(matrixoracle, "right_mul", counted_right_mul)
    G = build_group("GL", 3, 3)
    assert products == G.order * len(G.generators) == 11232 * 5
    assert dict(G.right_perms(G.conjugacy_classes().reps))
    assert products == G.order * len(G.generators)


def test_automorphisms_permute_the_group():
    G = build_group("SL", 2, 3)
    image = {gamma_in(G, g) for g in G.elements}
    assert image == set(G.elements)


def test_build_group_rejects_bad_input():
    with pytest.raises(OracleError):
        build_group("SP", 2, 3)
    with pytest.raises(OracleError):
        build_group("GL", 4, 7)


def test_build_group_checks_the_limit_in_front_of_the_memo(monkeypatch):
    assert build_group("GL", 2, 5).order == 480
    monkeypatch.setattr(matrixoracle, "GROUP_SIZE_LIMIT", 100)
    with pytest.raises(OracleError, match="exceeds limit 100"):
        build_group("GL", 2, 5)
    with pytest.raises(OracleError, match="exceeds limit 100"):
        build_group("GL", 2, 7)


# ---------------------------------------------------------------------------
# matrix kernels against scalar arithmetic


def reference_mul(a, b, F):
    """The matrix product written with F.add and F.mul, entry by entry."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = F.add(acc, F.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def square_matrices(F, n):
    row = st.tuples(*[st.integers(0, F.size - 1)] * n)
    return st.tuples(*[row] * n)


@st.composite
def field_and_two_matrices(draw, fields):
    F = build_field(*draw(st.sampled_from(fields)))
    mat = square_matrices(F, draw(st.integers(1, 4)))
    return F, draw(mat), draw(mat)


# GF(2), GF(5) take the prime kernel, GF(4), GF(9), GF(25) the table
# kernel, and GF(243), past the table limit, the scalar fallback.
KERNEL_FIELDS = ((2, 1), (5, 1), (2, 2), (3, 2), (5, 2), (3, 5))


@settings(max_examples=300, deadline=None)
@given(field_and_two_matrices(KERNEL_FIELDS))
def test_mat_mul_matches_scalar_reference(case):
    F, a, b = case
    assert mat_mul(a, b, F) == reference_mul(a, b, F)


@st.composite
def field_and_matrices_sharing_rows(draw, fields):
    """A field and matrices whose rows and columns come from a small pool,
    so one multiplier meets the same row at several positions."""
    F = build_field(*draw(st.sampled_from(fields)))
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, F.size - 1)] * n),
                         min_size=1, max_size=3))
    mats = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * n),
                         min_size=2, max_size=3))
    return F, mats + [tuple(zip(*m)) for m in mats]


@settings(max_examples=100, deadline=None)
@given(field_and_matrices_sharing_rows(KERNEL_FIELDS))
def test_fixed_factor_multipliers_match_mat_mul(case):
    F, mats = case
    for b in mats:
        times_b = right_mul(b, F)
        for a in mats:
            assert times_b(a) == mat_mul(a, b, F)


def reference_det(a, F):
    """The determinant by Laplace expansion along the first row."""
    if not a:
        return 1
    det = 0
    for j, x in enumerate(a[0]):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        term = F.mul(x, reference_det(minor, F))
        det = F.add(det, term) if j % 2 == 0 else F.sub(det, term)
    return det


def reference_rank(a, F):
    """The largest k with a nonzero k x k minor."""
    n = len(a)
    for k in range(n, 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                minor = tuple(tuple(a[i][j] for j in cols) for i in rows)
                if reference_det(minor, F):
                    return k
    return 0


def reference_inv(a, F):
    """The adjugate divided by the determinant."""
    n, inv_det = len(a), F.inv(reference_det(a, F))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j)
            cofactor = reference_det(minor, F)
            if (i + j) % 2:
                cofactor = F.neg(cofactor)
            row.append(F.mul(inv_det, cofactor))
        out.append(tuple(row))
    return tuple(out)


@st.composite
def field_and_matrix_of_any_rank(draw, fields):
    """A square matrix; some of its rows may be sums of multiples of the
    rows above, so singular matrices of every rank come up."""
    F = build_field(*draw(st.sampled_from(fields)))
    n = draw(st.integers(1, 4))
    element = st.integers(0, F.size - 1)
    rows = []
    for _ in range(n):
        if rows and draw(st.booleans()):
            row = (0,) * n
            for above in rows:
                c = draw(element)
                row = tuple(F.add(x, F.mul(c, y)) for x, y in zip(row, above))
        else:
            row = draw(st.tuples(*[element] * n))
        rows.append(row)
    return F, tuple(rows)


@settings(max_examples=300, deadline=None)
@given(field_and_matrix_of_any_rank(KERNEL_FIELDS))
def test_gauss_jordan_matches_scalar_reference(case):
    F, a = case
    det = reference_det(a, F)
    assert mat_det(a, F) == det
    assert mat_rank(a, F) == reference_rank(a, F)
    if det:
        assert mat_inv(a, F) == reference_inv(a, F)
    else:
        with pytest.raises(ZeroDivisionError):
            mat_inv(a, F)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 5), st.integers(1, 5),
       st.data())
def test_mat_rank_of_wide_and_tall_matrices_matches_sympy(p, rows, cols, data):
    F = build_field(p, 1)
    a = data.draw(st.tuples(*[st.tuples(*[st.integers(0, p - 1)] * cols)] * rows))
    K = GF(p)
    assert mat_rank(a, F) == DomainMatrix.from_list(
        [list(row) for row in a], K).rank()


def test_mat_rank_pivots_over_every_column():
    F = build_field(2, 1)
    assert mat_rank(((0, 0, 1),), F) == 1
    assert mat_rank(((0,), (0,), (1,)), F) == 1
    assert mat_rank(((0, 1, 1), (0, 1, 0)), F) == 2


@settings(max_examples=100, deadline=None)
@given(field_and_two_matrices(((2, 2), (3, 2))))
def test_mat_inv_is_a_left_inverse(case):
    F, a, _ = case
    assume(mat_det(a, F) != 0)
    assert mat_mul(mat_inv(a, F), a, F) == identity_matrix(len(a))
