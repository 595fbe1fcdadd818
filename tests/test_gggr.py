"""Generalized Gelfand-Graev data: weights, representatives, multiplicities."""

import ast
from collections import Counter
from itertools import product

import pytest

from mckaylab import gggr, matrixoracle
from mckaylab.exactfield import CertificateError, build_field, spp
from mckaylab.matrixoracle import (OracleError, build_group, frobenius_twist,
                                   gamma_twist)
from mckaylab.partitions import partitions


def test_weighted_dynkin_frozen_examples():
    # ascending weights, and the diagram labels as their differences
    for lam, h, labels in [
        ((3,), (-2, 0, 2), (2, 2)),
        ((2, 1), (-1, 0, 1), (1, 1)),
        ((1, 1, 1), (0, 0, 0), (0, 0)),
        ((2, 2), (-1, -1, 1, 1), (0, 2, 0)),
        ((4,), (-3, -1, 1, 3), (2, 2, 2)),
    ]:
        weights = tuple(w for w, _ in gggr.weight_multiset(lam))
        assert weights == h
        assert tuple(b - a for a, b in zip(weights, weights[1:])) == labels


def test_level_counts():
    assert gggr.e1_count((2, 1)) == 2
    assert gggr.e1_count((3,)) == 0
    assert gggr.e1_count((1, 1, 1)) == 0
    assert len(gggr.u2_positions((3,))) == 3
    assert len(gggr.u2_positions((2, 1))) == 1
    assert gggr.exact2_positions((2, 1)) == ((2, 0),)


def test_parity_and_symmetry_sweep_small():
    for nmax in range(1, 17):
        assert gggr.sweep_parity_symmetry(nmax) == sum(
            len(partitions(n)) for n in range(1, nmax + 1))


def test_sweep_passes_each_partition_its_trimmed_weight_list(monkeypatch):
    # the k-th call of parity_ok rejects, so the error names the partition
    # the sweep stands at; the list passed must be its weight list with the
    # n - t zeros trimmed from each end, t the largest part
    named = set()
    for k in range(gggr.sweep_parity_symmetry(12)):
        passed = []

        def parity(counts):
            passed.append(list(counts))
            return len(passed) <= k

        monkeypatch.setattr(gggr, "parity_ok", parity)
        with pytest.raises(CertificateError, match="odd e_1 at ") as err:
            gggr.sweep_parity_symmetry(12)
        lam = ast.literal_eval(str(err.value).removeprefix("odd e_1 at "))
        n, t = sum(lam), lam[0]
        assert passed[-1] == gggr.weight_counts(lam)[n - t:n + t - 1], lam
        named.add(lam)
    assert named == {lam for n in range(1, 13) for lam in partitions(n)}


@pytest.mark.parametrize("name,message", [("parity_ok", "odd e_1 at (1,)"),
                                          ("symmetry_ok",
                                           "asymmetric weights at (1,)")])
def test_sweep_failure_names_the_first_partition(monkeypatch, name, message):
    monkeypatch.setattr(gggr, name, lambda counts: False)
    with pytest.raises(CertificateError) as err:
        gggr.sweep_parity_symmetry(6)
    assert str(err.value) == message


def test_parity_and_symmetry_reject_bad_weights():
    # counts are listed by weight -(n-1) .. n-1
    assert gggr.weight_counts((3, 1)) == [0, 1, 0, 2, 0, 1, 0]
    # weights 0 and 1 once each: one position of level 1, so e_1 is odd
    assert not gggr.parity_ok([0, 1, 1])
    assert not gggr.symmetry_ok([0, 1, 1])
    assert not gggr.symmetry_ok([1, 1, 0, 2, 1])   # equal ends, unequal inside
    assert gggr.parity_ok([1, 0, 1])


def reference_counts(lam):
    """Multiplicity of each basis weight, as a Counter."""
    return Counter(h for size in lam for h in range(1 - size, size, 2))


def test_dense_weight_helpers_match_a_counter_reference():
    for n in range(1, 17):
        for lam in partitions(n):
            ref = reference_counts(lam)
            counts = gggr.weight_counts(lam)
            assert len(counts) == 2 * n - 1
            assert counts == [ref[h] for h in range(1 - n, n)]
            for level in range(2 * n - 1):
                assert gggr.level_count(counts, level) == sum(
                    c * ref[h + level] for h, c in ref.items())
            e1 = sum(c * ref[h + 1] for h, c in ref.items())
            assert gggr.e1_count(lam) == e1
            assert gggr.parity_ok(counts) == (e1 % 2 == 0)
            assert gggr.symmetry_ok(counts) == (
                ref == Counter({-h: c for h, c in ref.items()}))


@pytest.mark.parametrize("q", [2, 3])
def test_representatives_have_the_right_jordan_type(q):
    for n in range(2, 5):
        for lam in partitions(n):
            assert gggr.check_representative(lam, q)


def test_naive_level_two_fill_is_wrong_for_two_two():
    # filling every exact level-2 position does NOT give Jordan type (2,2);
    # the per-block chain does.
    F = build_field(2, 1)
    basis = gggr.weight_multiset((2, 2))
    n = len(basis)
    naive = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in gggr.exact2_positions((2, 2)):
        naive[i][j] = 1
    naive = tuple(tuple(row) for row in naive)
    assert gggr.jordan_type(naive, F) == (2, 1, 1)
    assert gggr.jordan_type(gggr.rep_unipotent((2, 2)), F) == (2, 2)


@pytest.mark.parametrize("lam,q", [
    ((2,), 2), ((2,), 3), ((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((3,), 2),
    ((3, 1), 2), ((4,), 2), ((2,), 4), ((2,), 5),
])
def test_character_is_multiplicative(lam, q):
    assert gggr.check_homomorphism(lam, q) > 0


@pytest.mark.parametrize("lam,q", [((2,), 3), ((3, 1), 2), ((2, 2), 2),
                                   ((3,), 4)])
def test_generator_walk_counts_every_element_times_every_generator(
        lam, q, monkeypatch):
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    n_gens = len(gggr.u2_positions(lam)) * F.k
    n_els = q ** len(gggr.u2_positions(lam))
    assert gggr.check_homomorphism(lam, q) == n_els ** 2
    monkeypatch.setattr(gggr, "HOM_EXHAUSTIVE_LIMIT", 0)
    assert gggr.check_homomorphism(lam, q) == n_els * n_gens


def test_generator_walk_fails_without_one_position(monkeypatch):
    # (1, 0) is a level-2 position and no product of the other positions
    gens = gggr.u2_generators
    monkeypatch.setattr(gggr, "u2_generators", lambda lam, F: gens(lam, F)[1:])
    monkeypatch.setattr(gggr, "HOM_EXHAUSTIVE_LIMIT", 0)
    with pytest.raises(CertificateError, match="do not generate"):
        gggr.check_homomorphism((3, 1), 2)


@pytest.mark.parametrize("exhaustive_limit", [1000, 0])
def test_homomorphism_fails_on_a_row_shift_that_is_not_constant(
        monkeypatch, exhaustive_limit):
    # the trace of 1 in GF(3) read as 0: psi_exponent and the row exponents
    # still agree, but the partner I + E_10 shifts row (x, 1) by
    # e(x+1) - e(x), which is 0 at x = 0 and 1 at x = 1
    traces = gggr._traces
    monkeypatch.setattr(gggr, "_traces", lambda F: (0, 0) + traces(F)[2:])
    monkeypatch.setattr(gggr, "HOM_EXHAUSTIVE_LIMIT", exhaustive_limit)
    with pytest.raises(CertificateError, match="not multiplicative"):
        gggr.check_homomorphism((2,), 3)


@pytest.mark.parametrize("exhaustive_limit", [1000, 0])
def test_homomorphism_fails_when_the_row_shifts_miss_psi_of_the_partner(
        monkeypatch, exhaustive_limit):
    # every trace of GF(3) plus 1: each row shift e(r.h) - e(r) is constant,
    # but for h = I + E_10 the shifts sum to 2 while psi(h) = 1
    traces = gggr._traces
    monkeypatch.setattr(gggr, "_traces",
                        lambda F: tuple((t + 1) % 3 for t in traces(F)))
    monkeypatch.setattr(gggr, "HOM_EXHAUSTIVE_LIMIT", exhaustive_limit)
    with pytest.raises(CertificateError, match="not multiplicative"):
        gggr.check_homomorphism((2,), 3)


def test_homomorphism_fails_when_psi_is_not_the_sum_of_its_rows(monkeypatch):
    monkeypatch.setattr(gggr, "psi_exponent", lambda F, exact2, u, g: 1)
    with pytest.raises(CertificateError, match="sum of its rows"):
        gggr.check_homomorphism((2,), 3)


def test_homomorphism_fails_on_a_partner_outside_u2(monkeypatch):
    gens = gggr.u2_generators
    monkeypatch.setattr(gggr, "u2_generators", lambda lam, F: tuple(
        tuple(zip(*h)) for h in gens(lam, F)))
    monkeypatch.setattr(gggr, "HOM_EXHAUSTIVE_LIMIT", 0)
    with pytest.raises(CertificateError, match="partner lies outside"):
        gggr.check_homomorphism((2,), 3)


def test_homomorphism_fails_on_a_product_outside_u2(monkeypatch):
    # reversing each image row sends the first row (1, 0) to (0, 1), no row
    # of U_2; the row sets themselves, the images under I, stay as they are
    real, one = gggr._row_images, matrixoracle.identity_matrix(2)

    def reversed_images(h, i, cols, F):
        images = real(h, i, cols, F)
        return images if h == one else tuple(row[::-1] for row in images)

    monkeypatch.setattr(gggr, "_row_images", reversed_images)
    with pytest.raises(CertificateError, match="product leaves"):
        gggr.check_homomorphism((2,), 3)


@pytest.mark.parametrize("lam,q", [((2, 1), 3), ((3,), 4), ((2, 2), 3), ((2,), 131)])
def test_row_images_are_the_rows_times_h(lam, q):
    # GF(4) reads the field tables, GF(131) is past them and uses F.add/F.mul
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    row_sets, free = gggr.u2_rows(lam, F), gggr._free_columns(lam)
    for h in gggr.u2_elements(lam, F):
        kernel = matrixoracle._row_kernel(h, F)
        for i, rows in enumerate(row_sets):
            assert gggr._row_images(h, i, free[i], F) == tuple(map(kernel, rows))


def test_homomorphism_past_the_table_limit():
    assert gggr.check_homomorphism((2,), 131) == 131 ** 2


def _count_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call to fn, wherever it is bound."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    for mod in (gggr, matrixoracle):
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, wrapper)
    return calls


def test_certificates_use_no_general_kernel_or_inverse_per_element(monkeypatch):
    # the general inverse runs once, for gamma_twist(u); the row products
    # never go through _row_kernel
    inversions = _count_calls(monkeypatch, matrixoracle.mat_inv)
    kernels = _count_calls(monkeypatch, matrixoracle._row_kernel)
    gggr.check_equivariance((3, 1), 4)
    assert len(inversions) == 1
    gggr.check_homomorphism((3, 1), 3)
    assert kernels == []


@pytest.mark.parametrize("lam,q", [
    ((2,), 2), ((2, 1), 2), ((2, 1), 3), ((3,), 2), ((2, 2), 3), ((2,), 4),
])
def test_character_is_twist_equivariant(lam, q):
    assert gggr.check_equivariance(lam, q) == 2 * q ** len(
        gggr.u2_positions(lam))


def test_equivariance_fails_on_a_twist_that_leaves_u2(monkeypatch):
    # sets the (0, 1) entry, above the diagonal; psi reads only (1, 0), so
    # only the membership check sees the difference
    monkeypatch.setattr(gggr, "frobenius_twist",
                        lambda g, F: ((g[0][0], 1),) + g[1:])
    with pytest.raises(CertificateError, match="leaves U_2"):
        gggr.check_equivariance((2,), 3)


def test_equivariance_fails_on_a_gamma_image_that_leaves_u2(monkeypatch):
    # sets the (0, 1) entry of every gamma(g), above the diagonal
    real = gggr.signed_reversal
    monkeypatch.setattr(gggr, "signed_reversal",
                        lambda h, F: ((real(h, F)[0][0], 1),) + real(h, F)[1:])
    with pytest.raises(CertificateError, match="leaves U_2"):
        gggr.check_equivariance((2,), 3)


def test_equivariance_fails_on_a_gamma_image_moved_inside_u2(monkeypatch):
    # adds 1 at the level-2 position (1, 0): gamma(g) stays in U_2, but
    # psi_{gamma(u)} reads that entry, and gamma(u) = u is 1 there
    real = gggr.signed_reversal

    def moved(h, F):
        (a, b), (c, d) = real(h, F)
        return (a, b), ((c + 1) % 3, d)

    monkeypatch.setattr(gggr, "signed_reversal", moved)
    with pytest.raises(CertificateError, match="equivariance fails"):
        gggr.check_equivariance((2,), 3)


def test_equivariance_fails_on_a_wrong_unitriangular_inverse(monkeypatch):
    # the identity is unitriangular but the inverse of no other element, so
    # every gamma(g) becomes I, where psi_{gamma(u)} is 0
    monkeypatch.setattr(gggr, "unitriangular_inv",
                        lambda a, F: matrixoracle.identity_matrix(len(a)))
    with pytest.raises(CertificateError, match="equivariance fails"):
        gggr.check_equivariance((2,), 3)


@pytest.mark.parametrize("lam,q", [((2,), 3), ((2, 1), 3), ((3,), 4),
                                   ((2, 2), 3), ((3, 1), 4), ((4,), 2)])
def test_row_exponents_sum_to_psi_for_the_twisted_representatives(lam, q):
    sp = spp(1, q)
    F = build_field(sp.p, sp.m)
    row_sets = gggr.u2_rows(lam, F)
    u, exact2 = gggr.rep_unipotent(lam), gggr.exact2_positions(lam)
    row_ids = tuple(product(*(range(len(rows)) for rows in row_sets)))
    for v in (u, frobenius_twist(u, F), gamma_twist(u, F)):
        exps = gggr._row_exponents(row_sets, exact2, v, F)
        assert [sum(map(list.__getitem__, exps, ids)) % F.p for ids in row_ids] \
            == [gggr.psi_exponent(F, exact2, v, g)
                for g in gggr.u2_elements(lam, F)]


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_gamma_conjugacy_witnesses(n, q):
    for lam in partitions(n):
        u, g = gggr.check_gamma_conjugacy(lam, q)
        assert sum(lam) == n and len(g) == n


def test_gamma_conjugacy_never_builds_a_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(matrixoracle, "build_group", refuse)
    monkeypatch.setattr(matrixoracle, "_build_group", refuse)
    for n, q in [(2, 3), (3, 3), (4, 2), (2, 5)]:
        for lam in partitions(n):
            u, g = gggr.check_gamma_conjugacy(lam, q)
            assert len(g) == n


def test_gamma_conjugacy_keeps_the_group_order_limit(monkeypatch):
    monkeypatch.setattr(matrixoracle, "GROUP_SIZE_LIMIT", 23)
    with pytest.raises(OracleError, match="group order 24 exceeds limit 23"):
        gggr.check_gamma_conjugacy((2,), 3)
    assert gggr.check_gamma_conjugacy((2,), 2)[1] == ((1, 0), (0, 1))


def test_gggr_multiplicities_frozen():
    assert gggr.gggr_multiplicities(2, 2, (2,)) == (1, 0, 1)
    assert gggr.gggr_multiplicities(2, 2, (1, 1)) == (1, 1, 2)
    assert gggr.gggr_multiplicities(2, 3, (2,)) == (0, 0, 1, 1, 1, 1, 1, 1)
    assert gggr.gggr_multiplicities(3, 2, (3,)) == (0, 1, 1, 0, 1, 1)
    assert gggr.gggr_multiplicities(3, 2, (2, 1)) == (0, 1, 1, 1, 2, 2)


def test_multiplicity_one_small_groups():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        res = gggr.check_multiplicity_one(n, q)
        assert res["all_covered"] is True
        assert res["regular_multfree"] is True
        assert res["regular_constituents"] == res["n_ss_classes"]
        assert res["trivial_gives_regular_rep"] is True


def test_regular_class_sum_is_twenty_one_dimensional():
    # the multiplicity-free constituents of the regular-class construction
    # for GL_3(2) have degrees 3, 3, 7, 8
    from mckaylab.bijection import oracle_table
    _, table = oracle_table("GL", 3, 2)
    mults = gggr.gggr_multiplicities(3, 2, (3,))
    degs = sorted(chi.degree for chi, m in zip(table.chars, mults) if m)
    assert degs == [3, 3, 7, 8]
    assert sum(m * chi.degree for m, chi in zip(mults, table.chars)) == 21


def test_gamma_conjugacy_returns_the_first_witness_of_a_plain_scan():
    # every partition of the five groups of acceptance criterion 7
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        S = build_group("SL", n, q)
        for lam in partitions(n):
            u = gggr.rep_unipotent(lam)
            target = gamma_twist(u, S.F)
            assert u in S.index and target in S.index
            times_u = S.right(u)
            first = next(g for g in S.elements if times_u(g) == S.mul(target, g))
            assert gggr.check_gamma_conjugacy(lam, q) == (u, first), (lam, q)
