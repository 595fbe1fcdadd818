"""Brute-force matrix groups: construction, classes, subgroup machinery."""

import math
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from mckaylab import matrixoracle
from mckaylab.exactfield import build_field, ell_part, prime_factors
from mckaylab.matrixoracle import (
    OracleError,
    build_group,
    closure,
    conjugacy_partition,
    form_matrix,
    frobenius_map,
    gamma_map,
    gamma_twist,
    identity_matrix,
    left_mul,
    mat_det,
    mat_inv,
    mat_mul,
    mat_rank,
    normalizer,
    right_mul,
    subgroup_closure,
    subgroup_view,
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
    monkeypatch.setattr(matrixoracle, "subgroup_closure", lambda parent, gens: parent)
    with pytest.raises(OracleError, match="not a power of 2"):
        sylow_subgroup(G, 2)


def test_sylow_at_prime_not_dividing_is_trivial():
    G = build_group("GL", 2, 3)
    P = sylow_subgroup(G, 5)
    assert P.order == 1
    assert normalizer(G, P) is G


def test_subgroup_views_are_interned_on_the_parent():
    G = build_group("GL", 2, 3)
    assert subgroup_view(G, G.elements) is G
    assert subgroup_view(G, reversed(G.elements), G.elements) is G
    P = sylow_subgroup(G, 3)
    again = subgroup_view(G, reversed(P.elements), generators=P.elements[1:])
    assert again is P
    assert subgroup_view(G, P.elements) is P
    assert subgroup_closure(G, P.elements) is P
    assert subgroup_view(P, P.elements) is P


@pytest.mark.parametrize("key", [("GL", 2, 4), ("GU", 2, 3), ("SU", 3, 2)])
def test_group_inverse_is_two_sided(key):
    G = build_group(*key)
    for g in G.elements:
        gi = G.inv(g)
        assert G.mul(g, gi) == G.identity == G.mul(gi, g)


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
        assert part.members == tuple(classes)
        assert part.reps == tuple(c[0] for c in classes)
        assert part.class_map == {x: k for k, c in enumerate(classes) for x in c}


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
    return subgroup_view(view, [
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
    greedy = matrixoracle.find_generators

    def first_candidate_only(candidates, right, identity, order):
        return greedy(islice(candidates, 1), right, identity, order)

    monkeypatch.setattr(matrixoracle, "find_generators", first_candidate_only)
    with pytest.raises(OracleError):
        normalizer(G, P)


def test_automorphisms_are_multiplicative():
    G = build_group("GU", 2, 2)
    sample = G.elements[:6]
    for g in sample:
        for h in sample:
            assert gamma_map(G, G.mul(g, h)) \
                == G.mul(gamma_map(G, g), gamma_map(G, h))
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


def test_closure_raises_past_its_limit():
    G = build_group("GL", 2, 3)
    assert len(closure(G.generators, G.right, G.identity, limit=48)) == 48
    with pytest.raises(OracleError, match="exceeded limit 47"):
        closure(G.generators, G.right, G.identity, limit=47)


def test_automorphisms_permute_the_group():
    G = build_group("SL", 2, 3)
    image = {gamma_map(G, g) for g in G.elements}
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
        times_b, b_times = right_mul(b, F), left_mul(b, F)
        for a in mats:
            assert times_b(a) == mat_mul(a, b, F) == left_mul(a, F)(b)
            assert b_times(a) == mat_mul(b, a, F)


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


@settings(max_examples=100, deadline=None)
@given(field_and_two_matrices(((2, 2), (3, 2))))
def test_mat_inv_is_a_left_inverse(case):
    F, a, _ = case
    assume(mat_det(a, F) != 0)
    assert mat_mul(mat_inv(a, F), a, F) == identity_matrix(len(a))
